// Command benchdiff compares two BENCH_<date>.json snapshots written by
// scripts/bench.sh, row by row:
//
//	go run ./scripts/benchdiff OLD.json NEW.json
//
// It prints ns/op and allocs/op old → new for every row the two share,
// names the rows only one of them has, and exits 1 if any shared row's
// allocs/op rose. Allocation counts are what a snapshot can gate on:
// ns/op on a shared box wanders by tens of percent between two runs of
// the same code — so the time column is there to be read, next to the
// paired runs a claim needs (bench/README.md), and has no threshold
// yet.
//
// "Rose" is exact for rows of at most pinnedRow allocs/op — the rows
// that pin a hot path or one deterministic operation at 0, 3, 8, 10,
// 38, 64, 171 — and means "by more than runSlack" above that. The big
// rows simulate whole runs with a different seed each iteration
// (Seed: uint64(i)), so their allocs/op is a mean over b.N seeds, and
// b.N moves with the box's speed and with the code's: the same commit
// measures 127,374 allocs/op on BlockingNetwork at b.N = 1 and 129,663
// at b.N = 2 (+1.8%), 39,320 and 39,478 on the radix sweep at 2 and 3.
// An allocation that creeps into the per-packet path moves those rows
// by whole multiples, not by percents.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"text/tabwriter"
)

const (
	pinnedRow = 1000
	runSlack  = 0.05
)

type row struct {
	Name   string   `json:"name"`
	Ns     *float64 `json:"ns_per_op"`
	Allocs *float64 `json:"allocs_per_op"`
}

type snapshot struct {
	Benchmarks []row `json:"benchmarks"`
}

func load(path string) (snapshot, error) {
	var s snapshot
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Benchmarks) == 0 {
		return s, fmt.Errorf("%s: no benchmark rows", path)
	}
	return s, nil
}

// num formats an optional value; a row without -benchmem has no allocs.
func num(v *float64, format string) string {
	if v == nil {
		return "-"
	}
	return fmt.Sprintf(format, *v)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json")
		os.Exit(2)
	}
	var snaps [2]snapshot
	for i, path := range os.Args[1:] {
		var err error
		if snaps[i], err = load(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
	}
	fmt.Printf("old: %s\nnew: %s\n", os.Args[1], os.Args[2])
	os.Exit(diff(snaps[0], snaps[1]))
}

// diff prints the comparison and returns the exit status.
func diff(old, cur snapshot) int {
	before := make(map[string]row, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		before[r.Name] = r
	}
	w := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "benchmark\tns/op old\tnew\tdelta\tallocs/op old\tnew\tdelta\t")
	var added, worse []string
	for _, n := range cur.Benchmarks {
		o, ok := before[n.Name]
		if !ok {
			added = append(added, n.Name)
			continue
		}
		delete(before, n.Name)
		nsDelta, allocDelta := "-", "-"
		if o.Ns != nil && n.Ns != nil && *o.Ns > 0 {
			nsDelta = fmt.Sprintf("%+.1f%%", 100*(*n.Ns / *o.Ns - 1))
		}
		if o.Allocs != nil && n.Allocs != nil {
			d := *n.Allocs - *o.Allocs
			allocDelta = fmt.Sprintf("%+.0f", d)
			if d >= 1 && (*o.Allocs <= pinnedRow || d > runSlack**o.Allocs) {
				worse = append(worse, n.Name)
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t\n", n.Name, num(o.Ns, "%.4g"), num(n.Ns, "%.4g"), nsDelta, num(o.Allocs, "%.0f"), num(n.Allocs, "%.0f"), allocDelta)
	}
	w.Flush()
	for _, name := range added {
		fmt.Printf("only in new: %s\n", name)
	}
	for _, r := range old.Benchmarks {
		if _, gone := before[r.Name]; gone {
			fmt.Printf("only in old: %s\n", r.Name)
		}
	}
	for _, name := range worse {
		fmt.Printf("FAIL: allocs/op rose on %s\n", name)
	}
	if len(worse) > 0 {
		return 1
	}
	return 0
}
