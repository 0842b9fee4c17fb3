package mc

// Cold-tier runs and the spill machinery. A run is an immutable sorted
// set of (fingerprint, sleep-mask) entries produced by seenShard.seal:
// 256-entry blocks, each delta-encoded against a small in-RAM index that
// holds every block's first fingerprint and byte offset. Lookups binary-
// search the index and decode one block.
//
// Runs are born in RAM and handed to background spiller goroutines (one
// per shard group) that write them through internal/store's checksummed
// framing and then drop the in-RAM blob, leaving only the index. A probe
// of a spilled run reads exactly one block back with ReadAt into a
// per-shard scratch buffer — no allocation, no mmap dependency. Integrity
// failures quarantine the file and mark the run bad: every subsequent
// probe of a bad run misses, so corruption can re-explore states but can
// never fabricate a "seen".

import (
	"encoding/binary"

	"fenceplace/internal/fsx"
	"fenceplace/internal/store"
)

// runBlockLen is the number of entries per delta-encoded block.
const runBlockLen = 256

// run is one sealed, immutable, sorted cold-tier run.
//
// Field discipline: the index arrays and n are immutable after buildRun.
// data/path/f/bad are mutated only under the owning shard's mutex; data
// itself is immutable, so the spiller may read it after taking the
// pointer under the lock.
type run struct {
	n       int      // entry count
	firstHi []uint64 // per-block first fingerprint
	firstLo []uint64
	offs    []uint32 // len nBlocks+1; block i is data[offs[i]:offs[i+1]]

	data []byte   // encoded blocks; nil once spilled
	path string   // spill file; "" while in RAM
	f    fsx.File // lazily opened spilled file
	bad  bool     // quarantined: all probes miss
}

// ramBytes is the run's accountable RAM cost (index always; blob until
// spilled).
func (r *run) ramBytes() int64 {
	return int64(len(r.data)) + int64(16*len(r.firstHi)) + int64(4*len(r.offs))
}

// buildRun encodes entries (sorted by hi, then lo) into a run. Encoding
// per block: the first entry contributes only uvarint(mask) — its
// fingerprint lives in the index — and each subsequent entry contributes
// uvarint(hi-prevHi), then uvarint(lo-prevLo) when the his are equal or
// uvarint(lo) when they differ, then uvarint(mask).
func buildRun(entries []fpEntry) *run {
	nBlocks := (len(entries) + runBlockLen - 1) / runBlockLen
	r := &run{
		n:       len(entries),
		firstHi: make([]uint64, 0, nBlocks),
		firstLo: make([]uint64, 0, nBlocks),
		offs:    make([]uint32, 1, nBlocks+1),
	}
	var buf [3 * binary.MaxVarintLen64]byte
	data := make([]byte, 0, 4*len(entries))
	for b := 0; b < nBlocks; b++ {
		blk := entries[b*runBlockLen : min((b+1)*runBlockLen, len(entries))]
		r.firstHi = append(r.firstHi, blk[0].hi)
		r.firstLo = append(r.firstLo, blk[0].lo)
		data = append(data, buf[:binary.PutUvarint(buf[:], uint64(blk[0].sleep))]...)
		for i := 1; i < len(blk); i++ {
			n := binary.PutUvarint(buf[:], blk[i].hi-blk[i-1].hi)
			if blk[i].hi == blk[i-1].hi {
				n += binary.PutUvarint(buf[n:], blk[i].lo-blk[i-1].lo)
			} else {
				n += binary.PutUvarint(buf[n:], blk[i].lo)
			}
			n += binary.PutUvarint(buf[n:], uint64(blk[i].sleep))
			data = append(data, buf[:n]...)
		}
		r.offs = append(r.offs, uint32(len(data)))
	}
	r.data = data
	return r
}

// blockBytes returns the encoded bytes of block b, reading them from the
// spill file when the run's blob has been dropped; transient read errors
// are retried like every other spill operation (cfg.IORetries), and one
// that outlasts the retries quarantines the run. Must be called with
// the owning shard's mutex held (it may open the file and uses the
// shard's scratch buffer).
func (sh *seenShard) blockBytes(e *engine, si int, r *run, b int) ([]byte, bool) {
	if r.bad {
		return nil, false
	}
	if r.data != nil {
		return r.data[r.offs[b]:r.offs[b+1]], true
	}
	if r.f == nil && !sh.openRun(e, si, r) {
		return nil, false
	}
	n := int(r.offs[b+1] - r.offs[b])
	if cap(sh.blockBuf) < n {
		sh.blockBuf = make([]byte, n, max(n, 4096))
	}
	buf := sh.blockBuf[:n]
	if err := e.spill.ReadAt(r.f, buf, int64(r.offs[b])); err != nil {
		sh.quarantineRun(e, si, r)
		return nil, false
	}
	return buf, true
}

// openRun verifies and opens a spilled run's file. A run that fails
// verification is quarantined and marked bad — treated as all-miss from
// then on, mirroring the baseline store's corruption discipline.
func (sh *seenShard) openRun(e *engine, si int, r *run) bool {
	f, _, err := e.spill.OpenRun(r.path)
	if err != nil {
		r.bad = true
		sh.stQuarantines++
		return false
	}
	r.f = f
	return true
}

// quarantineRun retires a run whose file went bad after open.
func (sh *seenShard) quarantineRun(e *engine, si int, r *run) {
	if r.f != nil {
		r.f.Close()
		r.f = nil
	}
	if r.path != "" && e.spill != nil {
		e.spill.Quarantine(r.path)
	}
	r.bad = true
	sh.stQuarantines++
}

// runFind binary-searches r for h and returns its stored sleep mask.
// Must be called with the owning shard's mutex held.
func (sh *seenShard) runFind(e *engine, si int, r *run, h h128) (mask uint32, ok bool) {
	// Last block whose first entry is <= h.
	lo, hi := 0, len(r.firstHi)-1
	b := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if r.firstHi[mid] > h.hi || (r.firstHi[mid] == h.hi && r.firstLo[mid] > h.lo) {
			hi = mid - 1
		} else {
			b = mid
			lo = mid + 1
		}
	}
	if b < 0 {
		return 0, false
	}
	blk, ok := sh.blockBytes(e, si, r, b)
	if !ok {
		return 0, false
	}
	curHi, curLo := r.firstHi[b], r.firstLo[b]
	m, n := binary.Uvarint(blk)
	if n <= 0 {
		sh.quarantineRun(e, si, r)
		return 0, false
	}
	blk = blk[n:]
	for {
		if curHi == h.hi && curLo == h.lo {
			return uint32(m), true
		}
		if curHi > h.hi || (curHi == h.hi && curLo > h.lo) || len(blk) == 0 {
			return 0, false
		}
		dHi, l, mm, rest, ok := decodeEntry(blk)
		if !ok {
			sh.quarantineRun(e, si, r)
			return 0, false
		}
		blk = rest
		if dHi == 0 {
			curLo += l
		} else {
			curHi += dHi
			curLo = l
		}
		m = mm
	}
}

// runEntries decodes every entry of r — the filter-rebuild path. Must be
// called with the owning shard's mutex held.
func (sh *seenShard) runEntries(r *run) ([]fpEntry, error) {
	if r.bad {
		return nil, errBadRun
	}
	data := r.data
	if data == nil {
		// Re-read the whole payload; rebuilds are rare (filter doublings).
		if sh.spill == nil {
			return nil, errBadRun
		}
		payload, err := sh.spill.ReadRunPayload(r.path)
		if err != nil {
			return nil, errBadRun
		}
		data = payload
	}
	out := make([]fpEntry, 0, r.n)
	for b := 0; b < len(r.firstHi); b++ {
		if int(r.offs[b+1]) > len(data) {
			return nil, errBadRun
		}
		blk := data[r.offs[b]:r.offs[b+1]]
		curHi, curLo := r.firstHi[b], r.firstLo[b]
		m, n := binary.Uvarint(blk)
		if n <= 0 {
			return nil, errBadRun
		}
		blk = blk[n:]
		out = append(out, fpEntry{hi: curHi, lo: curLo, sleep: uint32(m)})
		for len(blk) > 0 {
			dHi, l, mm, rest, ok := decodeEntry(blk)
			if !ok {
				return nil, errBadRun
			}
			blk = rest
			if dHi == 0 {
				curLo += l
			} else {
				curHi += dHi
				curLo = l
			}
			out = append(out, fpEntry{hi: curHi, lo: curLo, sleep: uint32(mm)})
		}
	}
	return out, nil
}

// decodeEntry reads one non-first block entry — uvarint(dHi),
// uvarint(lo or dLo), uvarint(mask) — validating each length before
// advancing, so truncated or corrupt bytes surface as !ok rather than a
// slice panic.
func decodeEntry(blk []byte) (dHi, l, mask uint64, rest []byte, ok bool) {
	dHi, n1 := binary.Uvarint(blk)
	if n1 <= 0 {
		return 0, 0, 0, nil, false
	}
	blk = blk[n1:]
	l, n2 := binary.Uvarint(blk)
	if n2 <= 0 {
		return 0, 0, 0, nil, false
	}
	blk = blk[n2:]
	mask, n3 := binary.Uvarint(blk)
	if n3 <= 0 {
		return 0, 0, 0, nil, false
	}
	return dHi, l, mask, blk[n3:], true
}

type badRunError struct{}

func (badRunError) Error() string { return "mc: spilled run failed integrity verification" }

var errBadRun = badRunError{}

// --- spiller goroutines ---

// nSpillGroups is the number of background spiller goroutines; shard si
// hands sealed runs to spiller si%nSpillGroups, so one slow disk write
// never serializes the whole shard space.
const nSpillGroups = 4

// spillItem is one sealed run awaiting its disk write.
type spillItem struct {
	sh *seenShard
	si int
	r  *run
}

// spillEnqueue hands a freshly sealed run to its shard group's spiller.
// The handoff never blocks: when the spillers are saturated (or there is
// no spill directory at all) the run simply stays in RAM — graceful
// degradation, not a stall in the workers' hot path.
func (e *engine) spillEnqueue(sh *seenShard, si int, r *run) {
	if e.spill == nil {
		return
	}
	select {
	case e.spillChs[si%nSpillGroups] <- spillItem{sh: sh, si: si, r: r}:
	default:
	}
}

// spiller drains one shard group's channel, writing runs to disk and
// dropping their in-RAM blobs.
func (e *engine) spiller(ch chan spillItem) {
	defer e.spillWG.Done()
	for it := range ch {
		e.spillRunSafe(it.sh, it.si, it.r)
	}
}

// spillRunSafe isolates one run's disk write: a panic in the spill path
// is recorded like a worker panic, and the run simply stays in RAM (the
// seal-in-RAM rung) — a background writer must never take down an
// exploration that is correct without it.
func (e *engine) spillRunSafe(sh *seenShard, si int, r *run) {
	defer func() {
		if rec := recover(); rec != nil {
			AsInternalError("mc: spiller", rec)
			store.NoteSealInRAM()
		}
	}()
	e.spillRun(sh, si, r)
}

// spillRun writes one run through the store's framing and swaps the run's
// backing from RAM to the file under the shard lock.
func (e *engine) spillRun(sh *seenShard, si int, r *run) {
	sh.mu.Lock()
	data := r.data
	bad := r.bad
	sh.mu.Unlock()
	if data == nil || bad {
		return
	}
	path, err := e.spill.Write(data)
	if err != nil {
		// Disk trouble the retries could not outlast: the run stays in
		// RAM, correctness unharmed — the seal-in-RAM degradation rung.
		store.NoteSealInRAM()
		return
	}
	sh.mu.Lock()
	r.path = path
	r.data = nil
	sh.coldRAM -= int64(len(data))
	sh.stSpillRuns++
	sh.stSpillBytes += int64(len(data))
	sh.mu.Unlock()
}

// startSpill creates the spill session and spiller pool for an
// exploration, when cfg.SpillDir asks for one. Spill-session failure is
// metered once (the seal-in-RAM rung) and disables spilling — runs stay
// in RAM — rather than failing the exploration.
func (e *engine) startSpill() {
	if e.cfg.SpillDir == "" {
		return
	}
	sp, err := store.NewSpillSessionConfig(e.cfg.SpillDir, store.Config{
		FS:      e.cfg.FS,
		Retries: e.cfg.IORetries,
	})
	if err != nil {
		store.NoteSealInRAM()
		return
	}
	e.spill = sp
	for i := range e.shards {
		e.shards[i].spill = sp
	}
	for i := range e.spillChs {
		e.spillChs[i] = make(chan spillItem, 256)
		e.spillWG.Add(1)
		go e.spiller(e.spillChs[i])
	}
}

// finishSeen tears down the seen set after the workers have retired:
// joins the spillers, flushes the per-shard stats to the telemetry
// registry, closes spilled-run files, and removes the spill session.
func (e *engine) finishSeen() {
	for i := range e.spillChs {
		if e.spillChs[i] != nil {
			close(e.spillChs[i])
			e.spillChs[i] = nil
		}
	}
	e.spillWG.Wait()
	for i := range e.shards {
		sh := &e.shards[i]
		mSeenHotHits.Add(i, sh.stHotHits)
		mSeenColdHits.Add(i, sh.stColdHits)
		mSeenSeals.Add(i, sh.stSeals)
		mSpillRuns.Add(i, sh.stSpillRuns)
		mSpillBytes.Add(i, sh.stSpillBytes)
		mSpillQuarantines.Add(i, sh.stQuarantines)
		for _, r := range sh.runs {
			if r.f != nil {
				r.f.Close()
				r.f = nil
			}
		}
	}
	if e.spill != nil {
		e.spill.Remove()
		e.spill = nil
	}
}
