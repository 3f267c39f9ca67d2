package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// runtimeCounters is a reading of the runtime's cumulative counters,
// taken through runtime/metrics, which does not stop the world.
type runtimeCounters struct {
	allocBytes, allocObjects uint64
	gcCPU, busyCPU           float64 // seconds
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterSamples))
	copy(s, counterSamples)
	metrics.Read(s)
	return runtimeCounters{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		busyCPU:      s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

// heapSampler polls the heap in use (live objects and garbage not yet
// collected) in the background and keeps the largest value seen since
// the last reset. The value grows between collections and drops at
// each, so the peak is the heap just before a collection or at the
// end of the window; a 2 ms poll misses at most 2 ms of allocation.
type heapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			if v := heapInUse(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// takePeak returns the peak since the last call (in MB) and starts a
// new window at the current value.
func (h *heapSampler) takePeak() float64 {
	now := heapInUse()
	return float64(max(h.peak.Swap(now), now)) / (1 << 20)
}

// heapInUse reads the bytes of heap objects, live or not yet swept.
func heapInUse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// median returns the middle value (mean of the two middle values for
// an even count), NaN when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean, NaN when empty.
func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1).
func percentile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
