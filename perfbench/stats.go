package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks; xs need not be sorted. It returns
// 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo] + (s[hi]-s[lo])*frac
}

// tailSupport reports how many samples of n lie beyond the p-th
// percentile.
func tailSupport(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// tailReport states a tail figure with its sample count on standard
// error, flagging a percentile the sample cannot support.
func tailReport(label string, xs []float64, p float64) float64 {
	v := percentile(xs, p)
	beyond := tailSupport(len(xs), p)
	note := ""
	if beyond < 10 {
		note = " (fewer than ten samples beyond it)"
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s p%g = %.4g ms over %d samples, %d beyond%s\n", label, p, v, len(xs), beyond, note)
	return v
}

// usage is a snapshot of the process's resource counters.
type usage struct {
	wall  time.Time
	cpu   time.Duration // user + system CPU time of the process
	alloc uint64        // cumulative heap bytes allocated
	gcCPU float64       // cumulative GC CPU seconds (runtime estimate)
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	u := usage{wall: time.Now()}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(usageSamples))
	copy(s, usageSamples)
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[1].Value.Float64()
	}
	return u
}

// usageDelta is the difference of two usage snapshots.
type usageDelta struct {
	wall, cpu time.Duration
	allocMB   float64
	gcCPU     float64 // seconds
}

func (a usage) to(b usage) usageDelta {
	return usageDelta{
		wall:    b.wall.Sub(a.wall),
		cpu:     b.cpu - a.cpu,
		allocMB: float64(b.alloc-a.alloc) / (1 << 20),
		gcCPU:   b.gcCPU - a.gcCPU,
	}
}

// cpuUtil is process CPU over wall × GOMAXPROCS.
func (d usageDelta) cpuUtil() float64 {
	return d.cpu.Seconds() / (d.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// gcFrac is the GC's share of the process CPU.
func (d usageDelta) gcFrac() float64 {
	if d.cpu <= 0 {
		return 0
	}
	return d.gcCPU / d.cpu.Seconds()
}

// heapWatch records the live heap (the bytes a garbage collection found
// reachable) at the end of every collection during the timed window.
// Objects allocated while a collection marks count as live, so a
// collection whose marking spans the switch from one operation to the
// next sees both; how often that happens depends on how long marking
// takes on a loaded host. The reported peak is therefore the 90th
// percentile of the readings, not their maximum.
type heapWatch struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	lives []float64 // MiB, one per completed collection
}

func watchHeap() *heapWatch {
	h := &heapWatch{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		last := s[0].Value.Uint64()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != last {
				last = c
				h.lives = append(h.lives, float64(s[1].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the peak live heap in MiB.
func (h *heapWatch) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	return percentile(h.lives, 90)
}

// median of a float sample.
func median(xs []float64) float64 { return percentile(xs, 50) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer metric that does not apply to
// the workload reads 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
