package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (nearest rank) of xs, sorting xs in
// place. Empty input yields 0.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs)) + 0.5)
	if i >= len(xs) {
		i = len(xs) - 1
	}
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle value of xs (mean of the two middle
// values for an even count), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memSnap is the part of runtime.MemStats the benchmark reads.
type memSnap struct {
	mallocs    uint64
	totalAlloc uint64
	heapAlloc  uint64
	numGC      uint32
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.Mallocs, ms.TotalAlloc, ms.HeapAlloc, ms.NumGC}
}

// settledHeap forces two collections (the second empties the
// sync.Pool victim caches the first one filled) and returns the live
// heap.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMem().heapAlloc
}

// rssBytes reads the resident set size from /proc (0 where absent).
func rssBytes() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb * 1024
			}
		}
	}
	return 0
}

// us converts a nanosecond count to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// hostTicks reads the VM-wide busy and steal clock ticks from
// /proc/stat. Steal is time the hypervisor ran something else while a
// virtual CPU of this machine wanted to run; busy includes it.
func hostTicks() (busy, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := make([]int64, len(f))
	for i := 1; i < len(f); i++ {
		v[i], _ = strconv.ParseInt(f[i], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return v[1] + v[2] + v[3] + v[6] + v[7] + v[8], v[8]
}
