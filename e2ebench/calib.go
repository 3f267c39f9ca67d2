package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// The host this benchmark runs on is shared, and its speed drifts:
// for tens of minutes at a time every timing of the program can read
// up to twice as slow while nothing in the program changed. A fixed
// calibration kernel, timed in the same process between the program's
// passes, slows down with it, so each time the benchmark reports is
// scaled by how fast the kernel ran against calibNominal: the timings
// read in reference-host time, and a change to the program moves them
// while a change of the host's phase moves them far less.
//
// The kernel does the kind of work the program does — header checks
// at shifting offsets over packet-sized byte strings, a map keyed by
// flow, per-flow records and a sort — but none of the program's code,
// so a change to the program never changes the scale.

// calibNominal is the kernel's median time on the reference host
// (NOTES.md, "Host"), the unit the scaled timings are expressed in.
const calibNominal = 17 * time.Millisecond

// calibEvery is the least time between two kernel runs interleaved
// with passes, so that short passes are not outnumbered by them.
const calibEvery = 200 * time.Millisecond

// calibInput is the kernel's fixed input: packet-like byte strings of
// 60 to 1260 bytes, about 2.5 MB in all, off the heap like the
// program's input.
var calibInput = func() []pcap.Packet {
	r := rand.New(rand.NewPCG(1, 2))
	pkts := make([]pcap.Packet, 4000)
	for i := range pkts {
		p := make([]byte, 60+r.IntN(1200))
		for j := range p {
			p[j] = byte(r.Uint32())
		}
		pkts[i].Data = p
	}
	if _, err := offHeap(pkts); err != nil {
		panic(err)
	}
	return pkts
}()

// calibFlow is the kernel's per-flow state.
type calibFlow struct {
	pkts, hits int
	sizes      []uint16
}

// calibState is the kernel's working memory. The first run allocates
// it and every later run reuses it, so a run allocates nothing: the
// kernel runs made while the daemon is fed must not count in the
// daemon's allocations.
var calibState struct {
	flows map[uint64]*calibFlow
	slab  []calibFlow // backs the map's values; never grows past its capacity
	keys  []uint64
}

// calibRun runs the kernel once and returns how long it took.
func calibRun() time.Duration {
	t0 := time.Now()
	st := &calibState
	if st.flows == nil {
		st.flows = make(map[uint64]*calibFlow, len(calibInput))
		st.slab = make([]calibFlow, 0, len(calibInput))
		st.keys = make([]uint64, 0, len(calibInput))
	}
	clear(st.flows)
	st.slab, st.keys = st.slab[:0], st.keys[:0]
	for round := 0; round < 18; round++ {
		for _, pkt := range calibInput {
			p := pkt.Data
			key := uint64(p[0])<<40 | uint64(p[1])<<32 | uint64(p[2])<<24 | uint64(p[3])<<16 | uint64(p[4]&0x3f)
			f := st.flows[key]
			if f == nil {
				st.slab = st.slab[:len(st.slab)+1]
				f = &st.slab[len(st.slab)-1]
				f.pkts, f.hits, f.sizes = 0, 0, f.sizes[:0]
				st.flows[key] = f
			}
			f.pkts++
			f.sizes = append(f.sizes, uint16(len(p)))
			for off := 0; off+12 <= len(p) && off < 48; off++ {
				h := p[off:]
				if h[0]>>6 == 2 && h[1]&0x7f < 64 && h[0]&0x0f < 4 {
					f.hits++
				}
			}
		}
	}
	for k, f := range st.flows {
		if f.hits > 0 {
			st.keys = append(st.keys, k)
		}
	}
	slices.Sort(st.keys)
	return time.Since(t0)
}

// hostSpeed collects kernel timings taken between the program's passes
// and turns them into the scale of a run.
type hostSpeed struct {
	runs []float64
	last time.Time
}

// sample runs the kernel n times.
func (h *hostSpeed) sample(n int) {
	for i := 0; i < n; i++ {
		h.runs = append(h.runs, float64(calibRun()))
	}
	h.last = time.Now()
}

// sampleThread runs the kernel once and records its CPU time on the
// calling thread, which must be locked to it. While the daemon is fed
// the kernel shares the process's CPUs with it, and its wall time
// would include the time it waited for one.
func (h *hostSpeed) sampleThread() {
	c0 := threadCPU()
	calibRun()
	h.runs = append(h.runs, float64(threadCPU()-c0))
}

// between runs the kernel once unless it ran within calibEvery.
func (h *hostSpeed) between() {
	if time.Since(h.last) >= calibEvery {
		h.sample(1)
	}
}

// recent is the factor over the last three kernel runs: the host's
// speed just now.
func (h *hostSpeed) recent() float64 {
	return median(h.runs[max(0, len(h.runs)-3):]) / float64(calibNominal)
}

// factor is how many times slower than the reference host this host
// ran the kernel: raw times divided by it read in reference time.
func (h *hostSpeed) factor() float64 {
	return median(h.runs) / float64(calibNominal)
}

// report prints the host's speed over part of a run and returns its
// factor.
func (h *hostSpeed) report(part string) float64 {
	f := h.factor()
	fmt.Printf("host slowdown %.4f over the %s (median of %d kernel runs, %.2f ms each on the reference host)\n",
		f, part, len(h.runs), ms(calibNominal))
	return f
}
