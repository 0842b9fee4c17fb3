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
//
// Tables outlive their exploration: once it ends, each shard's table is
// emptied and handed to tablePool, and the next exploration's first probe
// of a shard takes a pooled table before it allocates one. A small state
// space therefore pays for its set-up in states, not in 64 fresh tables.

import "sync"

// minSlots is the size a shard's table starts at, on its first probe,
// when tablePool has none to give.
const minSlots = 128

// maxPooledSlots is the largest table release hands back to tablePool:
// 1<<10 slots, 26 KiB, so a pooled 64-shard set holds at most 1.7 MB
// however large the exploration that released it. Bigger tables are left
// to the garbage collector.
const maxPooledSlots = 1 << 10

// fpTable boxes a released table so that tablePool can hold it; a shard
// keeps the box it took, emptied, to put its table back without
// allocating.
type fpTable struct {
	tags    []uint16
	entries []fpEntry
}

// tablePool recycles emptied tables across explorations and engines; any
// pooled size works, since a table grows from whatever size it starts at.
var tablePool sync.Pool

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
	n       int      // live slots
	box     *fpTable // the box the table came in from tablePool, if any

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
		if b, _ := tablePool.Get().(*fpTable); b != nil {
			sh.tags, sh.entries, sh.box = b.tags, b.entries, b
			*b = fpTable{} // the shard owns the table now
		} else {
			sh.grow(minSlots)
		}
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

// release empties the shard and hands its table to tablePool, emptied by
// clearing its tags (an entry is live only under a nonzero tag), unless
// the table has outgrown maxPooledSlots. The caller owns the shard: no
// worker probes it any more.
func (sh *seenShard) release() {
	if n := len(sh.tags); n > 0 && n <= maxPooledSlots {
		clear(sh.tags)
		b := sh.box
		if b == nil {
			b = new(fpTable)
		}
		b.tags, b.entries = sh.tags, sh.entries
		tablePool.Put(b)
	}
	sh.tags, sh.entries, sh.n, sh.box, sh.m = nil, nil, 0, nil, nil
}

// releaseSeen releases every shard's table (see release) once the
// exploration's workers have returned. ExploreCtx and tracePaths call it
// after explore, never explore itself, so tests can inspect the tables an
// exploration left.
func (e *engine) releaseSeen() {
	for i := range e.shards {
		e.shards[i].release()
	}
}
