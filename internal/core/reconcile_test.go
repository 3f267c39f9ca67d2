package core

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/bufpool"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
	"github.com/rtc-compliance/rtcc/internal/pcap"
)

// reconcileCapture is the smallest capture that reaches Close-time
// reconciliation. Stream A (10.0.0.1:50000 → 203.0.113.9:3478) carries
// 20 RTP datagrams at t0+1s…2s, inside the call window [t0, t0+10s], so
// no online rule removes it. Stream B (10.0.0.2:50001) sends one
// datagram to the same server 3-tuple at t0+20s, past the window and
// its slack: B is removed online, but A is not fed again, so only the
// full filter at Close sees that A's destination 3-tuple outlives the
// window and removes A too.
func reconcileCapture() (in CaptureInput, streamA string) {
	srcA, srcB := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2")
	server := netip.MustParseAddr("203.0.113.9")
	in = CaptureInput{
		Label: "reconcile", LinkType: pcap.LinkTypeRaw,
		CallStart: t0, CallEnd: t0.Add(10 * time.Second),
	}
	for i := 0; i < 20; i++ {
		in.Packets = append(in.Packets, pcap.Packet{
			Timestamp: t0.Add(time.Second + time.Duration(i)*50*time.Millisecond),
			Data:      hotRTPFrame(srcA, server, 50000, 3478, 0xbeef, uint16(i)),
		})
	}
	in.Packets = append(in.Packets, pcap.Packet{
		Timestamp: t0.Add(20 * time.Second),
		Data:      hotRTPFrame(srcB, server, 50001, 3478, 0xcafe, 0),
	})
	key := flow.KeyFor(layers.IPProtocolUDP,
		flow.Endpoint{Addr: srcA, Port: 50000}, flow.Endpoint{Addr: server, Port: 3478})
	return in, key.String()
}

// TestCloseReconciliation drives a stream that the online filter admits
// and the full filter removes through serial, evicting (pooled), and
// two-shard analyses. Each must match the batch reference (without
// per-packet records under eviction, which keeps none), count the
// stream in core_reclassified_streams_total once, and trace exactly one
// StreamReclassified event naming it.
func TestCloseReconciliation(t *testing.T) {
	in, streamA := reconcileCapture()
	want, err := BatchAnalyzeCapture(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Filter.RTC) != 0 || len(want.Filter.Removed) != 2 {
		t.Fatalf("batch reference kept %d RTC streams and removed %d, want 0 and 2",
			len(want.Filter.RTC), len(want.Filter.Removed))
	}
	cfg := AnalyzerConfig{Label: in.Label, LinkType: in.LinkType, CallStart: in.CallStart, CallEnd: in.CallEnd}

	serial := func(opts Options) (*CaptureAnalysis, error) {
		c := cfg
		if opts.EvictIdle > 0 {
			c.Pool = bufpool.Global()
		}
		a, err := NewAnalyzer(c, opts)
		if err != nil {
			return nil, err
		}
		for _, p := range in.Packets {
			if err := a.Feed(p.Timestamp, p.Data); err != nil {
				return nil, err
			}
		}
		return a.Close()
	}
	// twoShards feeds each stream to its own ExternalSeq shard, the
	// placement a two-shard router gives flows on different shards.
	twoShards := func(opts Options) (*CaptureAnalysis, error) {
		c := cfg
		c.ExternalSeq = true
		var shards [2]*Analyzer
		for i := range shards {
			sh, err := NewAnalyzer(c, opts)
			if err != nil {
				return nil, err
			}
			shards[i] = sh
		}
		for i, p := range in.Packets {
			sh := shards[0]
			if i == len(in.Packets)-1 {
				sh = shards[1]
			}
			if err := sh.FeedBatch([]Datagram{{Timestamp: p.Timestamp, Frame: p.Data, Seq: uint64(i + 1)}}); err != nil {
				return nil, err
			}
		}
		return MergeAnalyzers(shards[:])
	}

	for _, tc := range []struct {
		name         string
		opts         Options
		run          func(Options) (*CaptureAnalysis, error)
		sansPayloads bool
	}{
		{"serial", Options{KeepPayloads: true}, serial, false},
		{"evict-idle", Options{EvictIdle: time.Second}, serial, true},
		{"two-shards", Options{KeepPayloads: true}, twoShards, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.NewRegistry()
			buf := obs.NewBuffer(0)
			tc.opts.Metrics, tc.opts.Tracer = reg, buf
			got, err := tc.run(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if tc.sansPayloads {
				diffAnalysesSansPayloads(t, tc.name, want, got)
			} else if !reflect.DeepEqual(want, got) {
				t.Errorf("analysis differs from the batch reference\nbatch: %+v\ngot:   %+v", want, got)
			}
			snap := reg.Snapshot()
			if v := sumCounters(snap, "core_reclassified_streams_total"); v != 1 {
				t.Errorf("core_reclassified_streams_total = %d, want 1", v)
			}
			// Under eviction, stream A is finalized once before Close, so
			// reconciliation discards DPI state and not just records.
			if v := sumCounters(snap, "core_evicted_streams_total"); tc.opts.EvictIdle > 0 && v == 0 {
				t.Error("core_evicted_streams_total = 0, want stream A evicted before Close")
			}
			var events []string
			for _, ev := range buf.Events() {
				if ev.Kind == obs.KindStreamReclassified {
					events = append(events, ev.Stream)
				}
			}
			if len(events) != 1 || events[0] != streamA {
				t.Errorf("StreamReclassified events for %v, want exactly one for %q", events, streamA)
			}
		})
	}
}
