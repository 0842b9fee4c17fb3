package mc

// The two-level seen set. Each of the nShards shards keeps:
//
//   - a HOT tier: a fixed-budget open-addressed table of full 128-bit
//     fingerprints (fpEntry) fronted by a parallel array of 16-bit tags —
//     one cache line of tags covers 32 probe slots, so the common probe
//     touches the 24-byte entries only on a tag match. The hot tier is
//     where fresh states land and where sleep-mask updates happen.
//
//   - a COLD tier: immutable runs of (fingerprint, mask) entries sorted by
//     fingerprint and delta-encoded in 256-entry blocks. When the hot tier
//     crosses its share of the seen-set budget it is sealed — sorted,
//     encoded, appended to the shard's run list — and cleared; sealed runs
//     are handed to background spiller goroutines that move them to disk
//     through the store's checksummed framing (internal/store.Spill), so
//     workers never block on I/O and a spilled state costs ~2–4 bytes of
//     RAM instead of 26.
//
//   - a cuckoo-style presence filter over the cold tier: 4-slot buckets of
//     packed (16-bit fingerprint remainder, run id) pairs. A probe that
//     misses the hot tier consults the filter; in the overwhelmingly
//     common case (state never sealed) no bucket slot matches and the
//     probe ends O(1) and allocation-free. Filter hits name candidate
//     runs, which are binary-searched newest-first.
//
// Protocol invariants the differential tests pin against ExactSeen:
//
//   - A sealed entry is always findable: runs are appended to sh.runs
//     before their filter insertions, and a filter overflow grows the
//     filter and rebuilds it losslessly from the runs (the ground truth),
//     so the filter has no false negatives.
//   - The newest mask wins: probes check hot before cold and candidate
//     runs newest-first, and a cold hit that narrows the stored mask
//     re-inserts the narrowed mask into the hot tier, shadowing the stale
//     run entry.
//   - A corrupt spilled run is quarantined and treated as all-miss — a
//     state is then re-explored (wasted work, same answers), never
//     falsely pruned.

import (
	"sort"
	"sync"
	"time"

	"fenceplace/internal/store"
)

const (
	// hotMinSlots is the floor of the hot tier: even a 1-byte budget keeps
	// one probe-able table (it just seals after every insert).
	hotMinSlots = 128
	// hotMaxSlots caps hot-tier growth independent of budget.
	hotMaxSlots = 1 << 20
	// hotEntryBytes is the per-slot RAM cost: 2-byte tag + 24-byte entry.
	hotEntryBytes = 2 + 24
	// maxRunsPerShard bounds the cold tier: run ids are packed into 16
	// filter bits. At the bound the shard stops sealing and lets the hot
	// tier grow past its budget — correctness outranks the cap.
	maxRunsPerShard = 1 << 16
	// cuckooKicks bounds displacement chains before the filter grows.
	cuckooKicks = 512
)

// seenBudget derives the per-shard byte budget and the hot-tier slot cap
// from the config: SeenBudget bytes when set, else 8 bytes per MemoryCap
// arena word (the seen set gets to mirror the state arena's bound), else
// — negative SeenBudget, or uncapped MemoryCap — effectively unbounded.
// The hot tier is sized to about half the shard budget; the other half
// absorbs run indexes, the presence filter, and not-yet-spilled runs.
func seenBudget(cfg Config) (shardBudget int64, hotMax int) {
	total := cfg.SeenBudget
	if total == 0 {
		if cfg.MemoryCap > 0 {
			total = int64(cfg.MemoryCap) * 8
		} else {
			total = -1
		}
	}
	if total < 0 {
		return 1 << 62, hotMaxSlots
	}
	shardBudget = total / nShards
	if shardBudget < 1 {
		shardBudget = 1
	}
	slots := hotMinSlots
	for int64(slots)*2*hotEntryBytes*2 <= shardBudget && slots < hotMaxSlots {
		slots *= 2
	}
	return shardBudget, slots
}

// seenShard is one shard of the global seen set. The value stored per
// state is the sleep mask the state has been covered for: a state needs
// re-expansion only when it is reached with a sleep set that is not a
// superset of the stored mask, and then only for the previously-slept
// transitions (Godefroid's sleep sets with state matching). States are
// keyed by 128-bit fingerprints of their canonical encoding in the
// two-level hot/cold structure above; the exact string-keyed mode (m)
// survives behind Config.ExactSeen as a cross-checking oracle.
type seenShard struct {
	mu sync.Mutex

	// Hot tier. tags[i]==0 marks an empty slot (tag values are remapped
	// away from 0); entries[i] is live iff tags[i]!=0.
	tags    []uint16
	entries []fpEntry
	hotN    int

	// Cold tier: sealed runs, oldest first (index == run id), and the
	// cuckoo presence filter over their entries.
	runs    []*run
	filter  cuckoo
	coldRAM int64 // bytes of run data not yet spilled + run indexes

	// spill is the engine's spill session (nil when spilling is off); the
	// filter-rebuild path re-reads whole runs through it so spilled-run
	// I/O stays behind the fsx seam.
	spill *store.Spill

	// Per-shard scratch reused across seals and spilled-block reads.
	sealBuf  []fpEntry
	blockBuf []byte

	kickSeed uint64 // deterministic "random" kick-slot selection

	// Plain-integer stats accumulated under mu and flushed to the
	// telemetry registry once per exploration (finishSeen).
	stHotHits     int64
	stColdHits    int64
	stSeals       int64
	stSpillRuns   int64
	stSpillBytes  int64
	stQuarantines int64

	m map[string]uint32 // ExactSeen oracle
}

// hotBytes is the hot tier's current RAM footprint.
func (sh *seenShard) hotBytes() int64 {
	return int64(len(sh.tags)) * hotEntryBytes
}

// ramBytes is the shard's accountable seen-set footprint: hot arrays,
// unspilled run data and run indexes, and the filter.
func (sh *seenShard) ramBytes() int64 {
	return sh.hotBytes() + sh.coldRAM + int64(4*len(sh.filter.slots))
}

// hotTag derives the 16-bit quick-reject tag, remapped away from the
// empty-slot marker.
func hotTag(h h128) uint16 {
	t := uint16(h.hi)
	if t == 0 {
		t = 0xffff
	}
	return t
}

// visit runs the sleep-set seen protocol for a state fingerprint against
// the two-level structure: it returns whether the state needs
// (re-)expansion and, for re-expansions, the mask of previously slept
// transitions to fire. Must be called with sh.mu held. e and si are the
// owning engine and shard index, for budget decisions and spill handoff.
func (sh *seenShard) visit(e *engine, si int, h h128, sleep uint32) (need bool, revisit uint32) {
	if h.hi == 0 && h.lo == 0 {
		h.lo = 1
	}
	if sh.tags == nil {
		sh.grow(hotMinSlots)
	}
	tag := hotTag(h)
	mask := uint64(len(sh.tags) - 1)
	i := h.lo & mask
	for {
		t := sh.tags[i]
		if t == 0 {
			break // not hot
		}
		if t == tag {
			en := &sh.entries[i]
			if en.hi == h.hi && en.lo == h.lo {
				sh.stHotHits++
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

	// Not hot: consult the cold tier. prev is the sealed mask if present.
	if prev, ok := sh.coldLookup(e, si, h); ok {
		sh.stColdHits++
		if prev&^sleep == 0 {
			return false, 0
		}
		// Narrow the mask by shadowing the (immutable) run entry in hot.
		sh.hotInsert(e, si, h, prev&sleep)
		return true, prev &^ sleep
	}

	// First sighting.
	sh.hotInsert(e, si, h, sleep)
	return true, 0
}

// hotInsert adds a fingerprint to the hot tier, growing or sealing as the
// budget dictates. Must be called with sh.mu held.
func (sh *seenShard) hotInsert(e *engine, si int, h h128, sleep uint32) {
	if sh.tags == nil {
		sh.grow(hotMinSlots)
	}
	// Keep the load factor below 3/4: grow within budget, else seal (which
	// empties the table), else — at the run cap — grow past the budget.
	for (sh.hotN+1)*4 > len(sh.tags)*3 {
		switch {
		case len(sh.tags) < e.hotMaxSlots:
			sh.grow(2 * len(sh.tags))
		case len(sh.runs) < maxRunsPerShard:
			sh.seal(e, si)
		default:
			sh.grow(2 * len(sh.tags))
		}
	}
	tag := hotTag(h)
	mask := uint64(len(sh.tags) - 1)
	i := h.lo & mask
	for sh.tags[i] != 0 {
		i = (i + 1) & mask
	}
	sh.tags[i] = tag
	sh.entries[i] = fpEntry{hi: h.hi, lo: h.lo, sleep: sleep}
	sh.hotN++
	// A budget below even the minimum hot tier means every insert crosses
	// it: seal immediately. This is the forced-spill mode the differential
	// tests drive with SeenBudget=1 (one single-entry run per state), and
	// it is deterministic — independent of spiller timing — so visit
	// counts stay reproducible.
	if e.shardBudget < hotMinSlots*hotEntryBytes && len(sh.runs) < maxRunsPerShard {
		sh.seal(e, si)
	}
}

// grow (re)builds the hot arrays at n slots, rehashing live entries.
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

// seal sorts the hot tier's live entries into an immutable delta-encoded
// run, registers the run with the presence filter, clears the hot tier,
// and hands the run to the spillers. Must be called with sh.mu held.
func (sh *seenShard) seal(e *engine, si int) {
	if sh.hotN == 0 {
		return
	}
	start := time.Now()
	buf := sh.sealBuf[:0]
	for j, t := range sh.tags {
		if t != 0 {
			buf = append(buf, sh.entries[j])
		}
	}
	sh.sealBuf = buf
	sort.Slice(buf, func(a, b int) bool {
		if buf[a].hi != buf[b].hi {
			return buf[a].hi < buf[b].hi
		}
		return buf[a].lo < buf[b].lo
	})
	r := buildRun(buf)
	id := uint16(len(sh.runs))
	sh.runs = append(sh.runs, r) // before filter inserts: runs are the filter's ground truth
	sh.coldRAM += r.ramBytes()
	for i := range buf {
		sh.filterInsert(h128{hi: buf[i].hi, lo: buf[i].lo}, id)
	}
	clear(sh.tags)
	sh.hotN = 0
	sh.stSeals++
	mSealLatency.Observe(si&(nShards-1), time.Since(start).Nanoseconds())
	e.spillEnqueue(sh, si, r)
}

// --- cuckoo presence filter over the cold tier ---

// cuckoo maps 16-bit fingerprint remainders to run ids in 4-slot buckets.
// A slot packs remainder<<16|runID; 0 is the empty marker (remainders are
// remapped away from 0). Lookups collect every candidate run whose
// remainder matches; inserts displace with bounded kicks and fall back to
// growing the filter and rebuilding it from the shard's runs.
type cuckoo struct {
	slots []uint32 // 4*nBuckets, bucket-major
	n     int
}

// cuckooFP derives the filter remainder from bits of the fingerprint not
// used for shard routing (hi low bits), hot indexing (lo low bits), or
// bucket choice (lo high bits).
func cuckooFP(h h128) uint16 {
	f := uint16(h.hi >> 48)
	if f == 0 {
		f = 0xffff
	}
	return f
}

// buckets returns the two candidate bucket indexes for h. The alternate
// is an XOR partner, so it is an involution computable from either side.
func (c *cuckoo) buckets(h h128) (uint32, uint32) {
	nb := uint32(len(c.slots) / 4)
	b1 := uint32(h.lo>>32) & (nb - 1)
	b2 := b1 ^ (uint32(cuckooFP(h))*0x5bd1e995)&(nb-1)
	return b1, b2
}

// lookup appends the run ids of every slot matching h's remainder to dst
// (newest runs have the highest ids; the caller probes in descending id
// order). dst must have capacity 8; lookup never allocates.
func (c *cuckoo) lookup(h h128, dst []uint16) []uint16 {
	if c.slots == nil {
		return dst
	}
	fp := uint32(cuckooFP(h))
	b1, b2 := c.buckets(h)
	for _, b := range [2]uint32{b1, b2} {
		for s := b * 4; s < b*4+4; s++ {
			if v := c.slots[s]; v != 0 && v>>16 == fp {
				dst = append(dst, uint16(v))
			}
		}
	}
	return dst
}

// coldLookup probes the cold tier for h: presence filter first, then the
// candidate runs newest-first (so the latest sealed mask for a fingerprint
// shadows older ones).
func (sh *seenShard) coldLookup(e *engine, si int, h h128) (mask uint32, ok bool) {
	if len(sh.runs) == 0 {
		return 0, false
	}
	var cand [8]uint16
	ids := sh.filter.lookup(h, cand[:0])
	if len(ids) == 0 {
		return 0, false
	}
	// Insertion sort descending: at most 8 ids, no allocation.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] > ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	prev := uint16(0xffff)
	for k, id := range ids {
		if k > 0 && id == prev {
			continue // both bucket slots of the same (fp, run) pair
		}
		prev = id
		if m, found := sh.runFind(e, si, sh.runs[id], h); found {
			return m, true
		}
	}
	return 0, false
}

// filterInsert adds (h → run id) to the presence filter, growing it (and
// rebuilding from the runs) when a displacement chain overruns.
func (sh *seenShard) filterInsert(h h128, id uint16) {
	if sh.filter.slots == nil {
		sh.filter.slots = make([]uint32, 4*64)
	}
	for !sh.filter.tryInsert(h, id, &sh.kickSeed) {
		sh.filterRebuild(2 * len(sh.filter.slots))
	}
}

// tryInsert places the packed pair, displacing residents along a bounded
// random walk. Returns false when the filter needs to grow. A displaced
// resident's alternate bucket is recomputed from its packed remainder via
// the XOR involution, so no original fingerprint is needed.
func (c *cuckoo) tryInsert(h h128, id uint16, seed *uint64) bool {
	fp := uint32(cuckooFP(h))
	v := fp<<16 | uint32(id)
	b1, b2 := c.buckets(h)
	nb := uint32(len(c.slots) / 4)
	for _, b := range [2]uint32{b1, b2} {
		for s := b * 4; s < b*4+4; s++ {
			if c.slots[s] == 0 {
				c.slots[s] = v
				c.n++
				return true
			}
		}
	}
	b := b1
	for kick := 0; kick < cuckooKicks; kick++ {
		// xorshift: deterministic slot choice (reproducible explorations).
		*seed = *seed*6364136223846793005 + 1442695040888963407
		s := b*4 + uint32(*seed>>61)&3
		c.slots[s], v = v, c.slots[s]
		b = (s / 4) ^ ((v>>16)*0x5bd1e995)&(nb-1)
		for t := b * 4; t < b*4+4; t++ {
			if c.slots[t] == 0 {
				c.slots[t] = v
				c.n++
				return true
			}
		}
	}
	// v is homeless; the caller rebuilds from the runs, so nothing is lost.
	c.n++
	return false
}

// filterRebuild regenerates the filter at the given slot count from the
// shard's runs — the cold tier's ground truth. Runs that fail integrity
// are marked bad and skipped (their entries degrade to all-miss and count
// as quarantined, consistent with every other read of a bad run).
func (sh *seenShard) filterRebuild(slots int) {
	for {
		sh.filter = cuckoo{slots: make([]uint32, slots)}
		ok := true
	rebuild:
		for id, r := range sh.runs {
			ents, err := sh.runEntries(r)
			if err != nil {
				if !r.bad {
					r.bad = true
					sh.stQuarantines++
				}
				continue
			}
			for _, en := range ents {
				if !sh.filter.tryInsert(h128{hi: en.hi, lo: en.lo}, uint16(id), &sh.kickSeed) {
					ok = false
					break rebuild
				}
			}
		}
		if ok {
			return
		}
		slots *= 2
	}
}
