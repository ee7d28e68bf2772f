package main

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of vals by linear interpolation between
// closest ranks (vals is sorted in place). It returns 0 for no samples.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	slices.Sort(vals)
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	frac := pos - float64(lo)
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianOf times f reps times and returns the median duration.
func medianOf(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// peakRSSMB reads VmHWM of process pid from /proc, in MB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
