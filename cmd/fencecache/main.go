// Command fencecache inspects and maintains the persistent exploration
// store — SC baselines and TSO outcome sets — that fencecheck, paperbench
// and fenced warm-start from (see internal/store):
//
//	fencecache -dir /var/cache/fenceplace stats            # entry count, bytes, quarantine
//	fencecache -dir /var/cache/fenceplace stats -json      # machine-readable, telemetry counters included
//	fencecache -dir /var/cache/fenceplace ls               # one line per entry, with its kind
//	fencecache -dir /var/cache/fenceplace verify           # integrity-check everything
//	fencecache -dir /var/cache/fenceplace gc -max-bytes 1048576
//	fencecache -dir /var/cache/fenceplace gc -n -max-bytes 1048576   # dry run
//	fencecache -dir /var/cache/fenceplace gc -max-bytes 1048576 -spill /tmp/fp-spill
//
// -dir defaults to $FENCEPLACE_CACHE_DIR and must name an existing store.
// verify quarantines corrupt entries (they become cache misses, never
// wrong data) and exits 1 when it found any; gc evicts live entries
// oldest-first until the store fits the bound, and reclaims quarantined
// entries and stale temp files while it is at it. gc -n previews the
// eviction list without removing anything; gc -spill DIR additionally
// sweeps a seen-set spill area (see WithSpillDir): sessions orphaned by
// crashed explorations and quarantined runs.
//
// Exit status: 0 ok, 1 verification failures, 2 usage.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"fenceplace/internal/cli"
	"fenceplace/internal/mc"
	"fenceplace/internal/store"
)

func usage() {
	fmt.Fprintf(os.Stderr, "usage: fencecache [-dir DIR] stats|ls|verify|gc [-n] [-max-bytes N] [-spill DIR]\n")
	flag.PrintDefaults()
}

func main() {
	dir := flag.String("dir", "", "exploration store directory (default $FENCEPLACE_CACHE_DIR)")
	version := flag.Bool("version", false, "print the build identity and exit")
	flag.Usage = usage
	flag.Parse()
	if *version {
		cli.Version()
		return
	}

	d := *dir
	if d == "" {
		d = os.Getenv("FENCEPLACE_CACHE_DIR")
	}
	if d == "" || flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	// Inspection must not conjure a store skeleton at a mistyped path and
	// then report it empty-and-healthy; only certification runs create
	// stores.
	if info, err := os.Stat(d); err != nil || !info.IsDir() {
		fmt.Fprintf(os.Stderr, "fencecache: %s is not an existing store directory\n", d)
		os.Exit(2)
	}
	st, err := store.Open(d)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch cmd := flag.Arg(0); cmd {
	case "stats":
		fs := flag.NewFlagSet("stats", flag.ExitOnError)
		jsonOut := fs.Bool("json", false, "emit the stats as JSON, telemetry counters included")
		fs.Parse(flag.Args()[1:])
		entries := mustList(st)
		var bytes int64
		for _, en := range entries {
			bytes += en.Size
		}
		quar, _ := st.Quarantined()
		if *jsonOut {
			// The counters come from the store's telemetry registry — the
			// same "store.*" names the unified snapshot reports — scoped to
			// this store handle's operations.
			out := struct {
				Dir         string           `json:"dir"`
				Entries     int              `json:"entries"`
				Bytes       int64            `json:"bytes"`
				Quarantined int              `json:"quarantined"`
				Counters    map[string]int64 `json:"counters"`
			}{st.Dir(), len(entries), bytes, len(quar), st.Snapshot().Counters}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(out); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			break
		}
		fmt.Printf("store %s: %d entries, %d bytes\n", st.Dir(), len(entries), bytes)
		if len(quar) > 0 {
			fmt.Printf("quarantined: %d files (reclaimed by the next gc)\n", len(quar))
		}
	case "ls":
		for _, en := range mustList(st) {
			kind := "corrupt"
			if data, ok := st.Peek(en.Key); ok {
				kind = mc.RecordKind(data)
			}
			fmt.Printf("%s  %8d B  %s  %s\n", en.Key, en.Size, en.ModTime.UTC().Format(time.RFC3339), kind)
		}
	case "verify":
		ok, bad, err := st.Verify()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("verified %d entries, %d corrupt\n", ok, len(bad))
		for _, key := range bad {
			fmt.Printf("quarantined %s\n", key)
		}
		if len(bad) > 0 {
			os.Exit(1)
		}
	case "gc":
		fs := flag.NewFlagSet("gc", flag.ExitOnError)
		maxBytes := fs.Int64("max-bytes", 0, "evict oldest entries until the store is at most this many bytes")
		dryRun := fs.Bool("n", false, "dry run: print what would be evicted, remove nothing")
		spill := fs.String("spill", "", "also sweep this seen-set spill area (crashed sessions, quarantined runs)")
		spillAge := fs.Duration("spill-max-age", 24*time.Hour, "spill sessions untouched this long are treated as crash orphans")
		fs.Parse(flag.Args()[1:])
		if *maxBytes <= 0 && *spill == "" {
			fmt.Fprintln(os.Stderr, "gc requires -max-bytes > 0 (and/or -spill DIR)")
			os.Exit(2)
		}
		if *dryRun {
			if *maxBytes > 0 {
				plan, err := st.GCPlan(*maxBytes)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				var freed int64
				for _, en := range plan {
					fmt.Printf("would evict %s  %8d B  %s\n", en.Key, en.Size, en.ModTime.UTC().Format(time.RFC3339))
					freed += en.Size
				}
				fmt.Printf("would evict %d entries, free %d bytes\n", len(plan), freed)
			}
			if *spill != "" {
				plan, err := store.PlanSpillGC(*spill, *spillAge)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				var freed int64
				for _, en := range plan {
					fmt.Printf("would remove %s  %8d B  %s\n", en.Path, en.Size, en.ModTime.UTC().Format(time.RFC3339))
					freed += en.Size
				}
				fmt.Printf("would remove %d spill items, free %d bytes\n", len(plan), freed)
			}
			break
		}
		if *maxBytes > 0 {
			evicted, freed, err := st.GC(*maxBytes)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Printf("evicted %d entries, freed %d bytes\n", evicted, freed)
		}
		if *spill != "" {
			removed, freed, err := store.SpillGC(*spill, *spillAge)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			fmt.Printf("removed %d spill items, freed %d bytes\n", removed, freed)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q (valid choices: stats, ls, verify, gc)\n", cmd)
		usage()
		os.Exit(2)
	}
}

func mustList(st *store.Store) []store.Entry {
	entries, err := st.List()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return entries
}
