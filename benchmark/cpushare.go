package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// cpuShares aggregates a CPU profile's flat samples by package with the
// installed `go tool pprof` and returns each cpuPackages entry's share of
// all samples, plus "other" for the rest.
func cpuShares(profile string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-flat", "-unit=ms",
		"-nodecount=100000", "-nodefraction=0", "-edgefraction=0", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	flat, err := parseTop(out)
	if err != nil {
		return nil, err
	}
	return sharesByPackage(flat), nil
}

// parseTop reads `pprof -top -unit=ms` rows ("flat flat% sum% cum cum%
// name") into flat milliseconds per function name.
func parseTop(out []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %v", sc.Text(), err)
		}
		flat[strings.Join(f[5:], " ")] += ms
	}
	if !header {
		return nil, fmt.Errorf("pprof printed no table")
	}
	return flat, sc.Err()
}

// sharesByPackage sums flat time per cpuPackages entry and normalizes by
// the total. Every entry is present, 0 when it had no samples.
func sharesByPackage(flat map[string]float64) map[string]float64 {
	shares := map[string]float64{"other": 0}
	for _, p := range cpuPackages {
		shares[p] = 0
	}
	var total float64
	for fn, ms := range flat {
		total += ms
		p := packageOf(fn)
		if _, ok := shares[p]; !ok {
			p = "other"
		}
		shares[p] += ms
	}
	for p := range shares {
		shares[p] = ratio(shares[p], total)
	}
	return shares
}

// packageOf names a symbol's package the way cpuPackages does: the last
// element of a repro/internal import path, and the first element of a
// standard-library one (math/rand is math, internal/runtime/maps runtime).
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	path := fn[:slash+1+dot]
	if rest, ok := strings.CutPrefix(path, "repro/internal/"); ok {
		return rest
	}
	path = strings.TrimPrefix(path, "internal/")
	first, _, _ := strings.Cut(path, "/")
	return first
}
