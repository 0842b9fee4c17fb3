package mc

// The fingerprint seen set. Each of the nShards shards is one
// open-addressed table of fpEntry slots — a state's 128-bit fingerprint
// and the sleep mask it has been covered for — fronted by a parallel
// array of 16-bit tags: one cache line of tags covers 32 probe slots, so
// a probe touches the 24-byte entries only on a tag match. Probing is
// linear from the fingerprint's lo bits, and a table doubles before an
// insert would push its load past 3/4. Nothing else bounds it: the state
// budget (Config.MaxStates) caps how many states an exploration stores.
// A slot costs 26 bytes (2-byte tag, 24-byte entry).

import "sync"

// minSlots is the size a shard's table starts at, on its first probe.
const minSlots = 128

// seenShard is one shard of the global seen set. The value stored per
// state is the sleep mask the state has been covered for: a state needs
// re-expansion only when it is reached with a sleep set that is not a
// superset of the stored mask, and then only for the previously-slept
// transitions (Godefroid's sleep sets with state matching). The exact
// string-keyed mode (m) survives behind Config.ExactSeen as the
// cross-checking oracle; enqueue probes it inline, sharing no code with
// the table.
type seenShard struct {
	mu sync.Mutex

	// tags[i]==0 marks an empty slot (tag values are remapped away from
	// 0); entries[i] is live iff tags[i]!=0.
	tags    []uint16
	entries []fpEntry
	n       int // live slots

	m map[string]uint32 // ExactSeen oracle
}

// slotTag derives the 16-bit quick-reject tag, remapped away from the
// empty-slot marker.
func slotTag(h h128) uint16 {
	t := uint16(h.hi)
	if t == 0 {
		t = 0xffff
	}
	return t
}

// visit runs the sleep-set seen protocol for a state fingerprint: it
// returns whether the state needs (re-)expansion and, for re-expansions,
// the mask of previously slept transitions to fire. Must be called with
// sh.mu held.
func (sh *seenShard) visit(h h128, sleep uint32) (need bool, revisit uint32) {
	if sh.tags == nil {
		sh.grow(minSlots)
	}
	tag := slotTag(h)
	mask := uint64(len(sh.tags) - 1)
	i := h.lo & mask
	for t := sh.tags[i]; t != 0; t = sh.tags[i] {
		if t == tag {
			en := &sh.entries[i]
			if en.hi == h.hi && en.lo == h.lo {
				prev := en.sleep
				if prev&^sleep == 0 {
					return false, 0 // covered for a sleep set at least as permissive
				}
				en.sleep = prev & sleep
				return true, prev &^ sleep
			}
		}
		i = (i + 1) & mask
	}

	// First sighting: claim the empty slot the probe ended on, unless the
	// insert would push the load past 3/4.
	if (sh.n+1)*4 > len(sh.tags)*3 {
		sh.grow(2 * len(sh.tags))
		mask = uint64(len(sh.tags) - 1)
		i = h.lo & mask
		for sh.tags[i] != 0 {
			i = (i + 1) & mask
		}
	}
	sh.tags[i] = tag
	sh.entries[i] = fpEntry{hi: h.hi, lo: h.lo, sleep: sleep}
	sh.n++
	return true, 0
}

// grow (re)builds the table at n slots, rehashing live entries.
func (sh *seenShard) grow(n int) {
	oldTags, oldEntries := sh.tags, sh.entries
	sh.tags = make([]uint16, n)
	sh.entries = make([]fpEntry, n)
	mask := uint64(n - 1)
	for j, t := range oldTags {
		if t == 0 {
			continue
		}
		en := oldEntries[j]
		i := en.lo & mask
		for sh.tags[i] != 0 {
			i = (i + 1) & mask
		}
		sh.tags[i] = t
		sh.entries[i] = en
	}
}
