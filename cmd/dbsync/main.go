// Command dbsync reconciles two binary relational databases whose rows are
// unlabeled (the paper's §1 database application). Databases are text files:
// one row per line, each line a string of '0'/'1' characters of equal
// length (the labeled columns).
//
//	dbsync -generate -rows 64 -cols 96 -flips 6 a.db b.db   # make a demo pair
//	dbsync a.db b.db                                        # reconcile b -> a
//
// Reconciliation is one-way: the program reports what the holder of the
// second database must add/remove to hold the first, and how many bytes a
// real exchange would take versus shipping the whole file.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"sosr/internal/prng"
	"sosr/internal/setutil"
	"sosr/internal/workload"

	"sosr"
)

var (
	generate = flag.Bool("generate", false, "generate a demo database pair instead of reconciling")
	rows     = flag.Int("rows", 64, "rows for -generate")
	cols     = flag.Int("cols", 96, "columns for -generate")
	flips    = flag.Int("flips", 6, "bit flips between the generated pair")
	seed     = flag.Uint64("seed", 42, "seed for -generate and for the protocol coins")
	diff     = flag.Int("d", 0, "known bound on flipped bits (0 = unknown, runs the estimator variant)")
)

func main() {
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dbsync [flags] A.db B.db")
		flag.PrintDefaults()
		os.Exit(2)
	}
	pathA, pathB := flag.Arg(0), flag.Arg(1)
	if *generate {
		if err := generatePair(pathA, pathB); err != nil {
			fmt.Fprintln(os.Stderr, "generate:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s and %s (%d rows x %d cols, %d bit flips apart)\n", pathA, pathB, *rows, *cols, *flips)
		return
	}
	if err := reconcile(pathA, pathB); err != nil {
		fmt.Fprintln(os.Stderr, "dbsync:", err)
		os.Exit(1)
	}
}

func generatePair(pathA, pathB string) error {
	db := workload.RandomDatabase(*seed, *rows, *cols, 0.4, nil)
	flipped := workload.FlipBits(db, *flips, prng.New(*seed^0xf11b5))
	if err := writeDB(pathB, db, *cols); err != nil {
		return err
	}
	return writeDB(pathA, flipped, *cols)
}

func writeDB(path string, db *workload.Database, cols int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, row := range db.Rows {
		line := make([]byte, cols)
		for i := range line {
			line[i] = '0'
		}
		for _, c := range row {
			line[c] = '1'
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	return w.Flush()
}

func readDB(path string) (rowSets [][]uint64, cols int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if cols == 0 {
			cols = len(line)
		} else if len(line) != cols {
			return nil, 0, fmt.Errorf("%s: ragged row width %d (want %d)", path, len(line), cols)
		}
		var row []uint64
		for i, ch := range line {
			switch ch {
			case '1':
				row = append(row, uint64(i))
			case '0':
			default:
				return nil, 0, fmt.Errorf("%s: invalid character %q", path, ch)
			}
		}
		rowSets = append(rowSets, setutil.Canonical(row))
	}
	return rowSets, cols, sc.Err()
}

func reconcile(pathA, pathB string) error {
	a, colsA, err := readDB(pathA)
	if err != nil {
		return err
	}
	b, colsB, err := readDB(pathB)
	if err != nil {
		return err
	}
	if colsA != colsB {
		return fmt.Errorf("column counts differ: %d vs %d", colsA, colsB)
	}
	cfg := sosr.Config{
		Seed:         *seed,
		MaxChildSets: max(len(a), len(b)),
		MaxChildSize: colsA,
		Universe:     uint64(colsA),
		KnownDiff:    *diff,
	}
	res, err := sosr.ReconcileSetsOfSets(a, b, cfg)
	if err != nil {
		return err
	}
	fileBytes := len(b) * (colsA + 1)
	fmt.Printf("reconciled %s -> %s using %v: %d rows, %d columns\n", pathB, pathA, res.Protocol, len(a), colsA)
	fmt.Printf("  rows to add:    %d\n", len(res.Added))
	fmt.Printf("  rows to remove: %d\n", len(res.Removed))
	fmt.Printf("  wire bytes:     %d (vs %d to ship the whole file) in %d round(s)\n",
		res.Stats.TotalBytes, fileBytes, res.Stats.Rounds)
	exact := sosr.SetsOfSetsDistance(res.Recovered, a) == 0
	fmt.Printf("  verified:       %v\n", exact)
	if !exact {
		return fmt.Errorf("verification failed")
	}
	return nil
}
