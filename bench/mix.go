package main

import (
	"encoding/json"
	"math/rand/v2"

	"fenceplace"
	"fenceplace/internal/progs"
)

// The service-mixed request mix. The sequence opens with a warm-up round
// that sends every distinct request once, in a seeded order: the cold
// pass that set-up ends with, so every seed warms the store with the same
// work. After it, requests are dealt in blocks of mixBlock: every block
// holds each class exactly share times, in a seeded order, and each class
// deals its options like a shuffled deck (every option once per round, in
// a fresh seeded order each round). The mix is therefore exact over every
// block, and different seeds reorder the work without changing how much
// of it there is, which keeps runs with different seeds comparable.

const mixBlock = 20

// reqKind says how a request names its program.
type reqKind int

const (
	kindCorpus reqKind = iota // a named corpus program
	kindGo                    // restricted Go source, lowered by the frontend
	kindIR                    // inline textual IR
)

// reqOption is one distinct request of the mix.
type reqOption struct {
	key      string // golden case, e.g. "corpus:peterson:all"
	kind     reqKind
	name     string // corpus program, Go file or kernel the IR was built from
	src      string // Go source or IR text
	strategy string // request strategy word; "" leaves the server default
	body     []byte // the JSON POST body
}

// reqClass is a class of the mix with its share of every block.
type reqClass struct {
	name  string
	share int
	opts  []reqOption
}

// mix is the set of request classes.
type mix struct {
	classes []reqClass
	slots   []int        // class index per slot of a block, before shuffling
	all     []*reqOption // every distinct request, the warm-up round
}

// Kernels small enough to certify in a few milliseconds at the service's
// reduced instantiation; cilk5 and lamport are the heavy ones.
var (
	smallKernels = []string{"peterson", "clh", "msqueue", "chaselev", "mcs", "dekker"}
	heavyKernels = []string{"cilk5", "lamport"}
	bothWays     = []string{"control", "all"}
)

// newMix builds the classes. root is the repository root, whose
// testdata/gosource files make up the go_source class.
func newMix(root string) (*mix, error) {
	m := &mix{}
	hot := reqClass{name: "hot", share: 8, opts: []reqOption{corpusOption("dekker", "")}}
	small := reqClass{name: "small", share: 6}
	inline := reqClass{name: "ir", share: 2}
	for _, k := range smallKernels {
		for _, s := range bothWays {
			small.opts = append(small.opts, corpusOption(k, s))
			inline.opts = append(inline.opts, irOption(k, s))
		}
	}
	goSrc := reqClass{name: "go", share: 3}
	files, err := readGoSources(root)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		for _, s := range bothWays {
			goSrc.opts = append(goSrc.opts, goOption(f.name, string(f.src), s))
		}
	}
	heavy := reqClass{name: "heavy", share: 1}
	for _, k := range heavyKernels {
		heavy.opts = append(heavy.opts, corpusOption(k, "control"))
	}
	m.classes = []reqClass{hot, small, goSrc, inline, heavy} // shares sum to mixBlock
	for ci, c := range m.classes {
		for i := 0; i < c.share; i++ {
			m.slots = append(m.slots, ci)
		}
		for oi := range c.opts {
			m.all = append(m.all, &m.classes[ci].opts[oi])
		}
	}
	return m, nil
}

func corpusOption(name, strategy string) reqOption {
	key := "corpus:" + name
	if strategy != "" {
		key += ":" + strategy
	}
	return reqOption{key: key, kind: kindCorpus, name: name, strategy: strategy,
		body: requestBody(map[string]string{"corpus": name, "strategy": strategy})}
}

func goOption(file, src, strategy string) reqOption {
	return reqOption{key: "go:" + file + ":" + strategy, kind: kindGo, name: file, src: src, strategy: strategy,
		body: requestBody(map[string]string{"go_source": src, "strategy": strategy})}
}

// irOption formats the kernel's reduced build, the instantiation the
// server certifies a named corpus program at: at its default size an IR
// submission of a kernel would take seconds per job.
func irOption(kernel, strategy string) reqOption {
	src := fenceplace.Format(reducedBuild(kernel))
	return reqOption{key: "ir:" + kernel + ":" + strategy, kind: kindIR, name: kernel, src: src, strategy: strategy,
		body: requestBody(map[string]string{"program": src, "strategy": strategy})}
}

// reducedBuild instantiates a corpus program as the server does for a
// request naming it: two threads, size capped at 2.
func reducedBuild(name string) *fenceplace.Program {
	meta := progs.ByName(name)
	p := meta.Defaults
	p.Threads = 2
	if p.Size > 2 {
		p.Size = 2
	}
	return meta.Build(p)
}

// requestBody encodes the non-empty fields as a JSON object.
func requestBody(fields map[string]string) []byte {
	obj := map[string]string{}
	for k, v := range fields {
		if v != "" {
			obj[k] = v
		}
	}
	b, err := json.Marshal(obj)
	if err != nil {
		panic(err) // a map of strings always encodes
	}
	return b
}

// rng returns the generator for one stream of a seed.
func rng(seed uint64, stream ...uint64) *rand.Rand {
	s := uint64(0x9e3779b97f4a7c15)
	for _, x := range stream {
		s = s*0x100000001b3 ^ (x + 1)
	}
	return rand.New(rand.NewPCG(seed, s))
}

// at returns request i of the seed's sequence.
func (m *mix) at(seed uint64, i int) *reqOption {
	if i < len(m.all) {
		return m.all[rng(seed, 3).Perm(len(m.all))[i]]
	}
	i -= len(m.all)
	block, pos := i/mixBlock, i%mixBlock
	slots := append([]int(nil), m.slots...)
	r := rng(seed, 0, uint64(block))
	r.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	ci := slots[pos]
	c := &m.classes[ci]
	k := block * c.share // requests of this class dealt before this one
	for _, s := range slots[:pos] {
		if s == ci {
			k++
		}
	}
	n := len(c.opts)
	deck := rng(seed, 1, uint64(ci), uint64(k/n)).Perm(n)
	return &c.opts[deck[k%n]]
}
