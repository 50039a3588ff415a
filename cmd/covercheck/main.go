// Command covercheck gates per-package statement coverage against a
// checked-in floors file:
//
//	go test -short -cover ./... | covercheck -floors coverage_floors.txt
//
// Input is `go test -cover` output; every "ok ... coverage: X% of
// statements" line is matched against the floors file (lines of
// "<import-path> <minimum-percent>", '#' comments). A package below its
// floor fails the gate, as does a floored package missing from the input —
// a silently skipped package must not read as a passing one. Packages
// without a floor are reported informationally, so newly added packages
// surface until they get a line in the floors file.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	floorsPath := flag.String("floors", "coverage_floors.txt", "path to the coverage floors file")
	flag.Parse()
	if err := run(*floorsPath, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "covercheck:", err)
		os.Exit(1)
	}
}

// coverLine matches `go test -cover` package result lines, e.g.
// "ok  	dualgraph/internal/sim	0.154s	coverage: 77.3% of statements".
var coverLine = regexp.MustCompile(`^ok\s+(\S+)\s+\S+\s+coverage:\s+([0-9.]+)% of statements`)

func run(floorsPath string, in io.Reader, out io.Writer) error {
	floors, err := readFloors(floorsPath)
	if err != nil {
		return err
	}
	got := make(map[string]float64)
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		m := coverLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		pct, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return fmt.Errorf("unparsable coverage %q for %s", m[2], m[1])
		}
		got[m[1]] = pct
	}
	if err := sc.Err(); err != nil {
		return err
	}

	var pkgs []string
	for pkg := range floors {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	failed := 0
	for _, pkg := range pkgs {
		floor := floors[pkg]
		pct, ok := got[pkg]
		switch {
		case !ok:
			fmt.Fprintf(out, "FAIL %-40s no coverage line (floor %g%%): package skipped or broken\n", pkg, floor)
			failed++
		case pct < floor:
			fmt.Fprintf(out, "FAIL %-40s %5.1f%% < floor %g%%\n", pkg, pct, floor)
			failed++
		default:
			fmt.Fprintf(out, "ok   %-40s %5.1f%% >= floor %g%%\n", pkg, pct, floor)
		}
	}
	var unfloored []string
	for pkg := range got {
		if _, ok := floors[pkg]; !ok {
			unfloored = append(unfloored, pkg)
		}
	}
	sort.Strings(unfloored)
	for _, pkg := range unfloored {
		fmt.Fprintf(out, "info %-40s %5.1f%% (no floor set)\n", pkg, got[pkg])
	}
	if failed > 0 {
		return fmt.Errorf("%d package(s) below their coverage floor", failed)
	}
	return nil
}

// readFloors parses the floors file: one "<import-path> <percent>" pair per
// line, blank lines and '#' comments ignored.
func readFloors(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	floors := make(map[string]float64)
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"<package> <floor>\", got %q", path, lineNo, line)
		}
		floor, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || floor < 0 || floor > 100 {
			return nil, fmt.Errorf("%s:%d: floor %q is not a percentage", path, lineNo, fields[1])
		}
		if _, dup := floors[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate floor for %s", path, lineNo, fields[0])
		}
		floors[fields[0]] = floor
	}
	return floors, sc.Err()
}
