package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs (nearest rank).
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	return s[(len(s)-1)/4], s[(3*(len(s)-1))/4]
}

// tailPercentiles are the candidate tail percentiles, highest last.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailOf returns the highest of tailPercentiles that has at least ten
// samples beyond it, and which percentile that is. With fewer than twenty
// samples none qualifies and the maximum (p100) is returned.
func tailOf(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := float64(len(s))
	value, percentile = s[len(s)-1], 100
	for _, p := range tailPercentiles {
		if n*(100-p)/100 < 10 {
			break
		}
		// Nearest rank: the smallest sample with at least p% at or below it.
		k := int(math.Ceil(p/100*n)) - 1
		value, percentile = s[max(k, 0)], p
	}
	return value, percentile
}

// tailBlockCells is the least number of cells in one blockTail block: the
// highest percentile with at least ten cells beyond it is then p90 in every
// block, however many cells a run completes.
const tailBlockCells = 100

// blockTail splits a run's cells into consecutive blocks of whole passes
// (passEnds holds len(cells) after each pass), each of at least
// tailBlockCells cells, and returns the median of the blocks' tailOf values,
// its percentile and the number of blocks. A trailing partial block is
// dropped. Pooling every cell instead would let the percentile jump from p90
// to p99 as a run's cell count crossed 1000. With no full block it returns
// tailOf(cells) and zero blocks.
func blockTail(cells []float64, passEnds []int) (value, percentile float64, blocks int) {
	var tails []float64
	start := 0
	for _, end := range passEnds {
		if end-start < tailBlockCells {
			continue
		}
		v, p := tailOf(cells[start:end])
		tails = append(tails, v)
		percentile = max(percentile, p)
		start = end
	}
	if len(tails) == 0 {
		value, percentile = tailOf(cells)
		return value, percentile, 0
	}
	return median(tails), percentile, len(tails)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// resetPeakRSS starts a new peak-RSS period: writing 5 to the process's own
// clear_refs resets VmHWM (Linux 4.0+). Where that is unavailable the peak
// keeps covering the whole run so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the resident-set high-water mark (VmHWM) in MiB since
// the last reset. Without /proc it falls back to the memory the Go runtime
// holds from the OS.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys-ms.HeapReleased) / (1 << 20)
}
