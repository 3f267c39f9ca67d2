package filterpipe

import (
	"net/netip"
	"testing"
	"time"

	"github.com/rtc-compliance/rtcc/internal/appsim"
	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/pcap"
	"github.com/rtc-compliance/rtcc/internal/tlsinspect"
	"github.com/rtc-compliance/rtcc/internal/trace"
)

var t0 = time.Unix(1700000000, 0).UTC()

// buildTable assembles a flow table from a trace capture.
func buildTable(t *testing.T, cap *trace.Capture) *flow.Table {
	t.Helper()
	table := flow.NewTable()
	for _, f := range cap.Frames() {
		pkt, err := layers.Decode(pcap.LinkTypeRaw, f.Data)
		if err != nil {
			t.Fatal(err)
		}
		table.Add(f.Timestamp, pkt)
	}
	return table
}

func generate(t *testing.T, app appsim.App, network appsim.Network) (*trace.Capture, *flow.Table, *Result) {
	t.Helper()
	cap, err := trace.Generate(trace.CaptureConfig{
		App:          app,
		Network:      network,
		Seed:         9,
		Start:        t0,
		CallDuration: 8 * time.Second,
		PrePost:      12 * time.Second,
		MediaRate:    15,
		Background:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	table := buildTable(t, cap)
	res := Run(table, Config{CallStart: cap.CallStart, CallEnd: cap.CallEnd})
	return cap, table, res
}

func TestPartitionPreserved(t *testing.T) {
	_, table, res := generate(t, appsim.WhatsApp, appsim.WiFiRelay)
	if len(res.RTC)+len(res.RemovedStreams) != table.Len() {
		t.Fatalf("kept %d + removed %d != total %d", len(res.RTC), len(res.RemovedStreams), table.Len())
	}
	kept := res.RTCUDP.Packets + res.RTCTCP.Packets
	removed := res.Stage1UDP.Packets + res.Stage1TCP.Packets + res.Stage2UDP.Packets + res.Stage2TCP.Packets
	if kept+removed != table.PacketCount() {
		t.Fatalf("packet accounting: %d + %d != %d", kept, removed, table.PacketCount())
	}
	if res.RawUDP.Streams+res.RawTCP.Streams != table.Len() {
		t.Fatal("raw stream accounting wrong")
	}
}

func TestEveryRuleFires(t *testing.T) {
	_, _, res := generate(t, appsim.GoogleMeet, appsim.WiFiP2P)
	rules := make(map[Rule]int)
	for _, rm := range res.Removed {
		rules[rm.Rule]++
	}
	for _, want := range []Rule{RuleTimespan, RuleThreeTuple, RuleSNI, RuleLocalIP, RulePort} {
		if rules[want] == 0 {
			t.Errorf("rule %q never fired: %v", want, rules)
		}
	}
}

func TestRTCTrafficSurvives(t *testing.T) {
	for _, app := range appsim.Apps {
		for _, network := range appsim.Networks {
			cap, _, res := generate(t, app, network)
			// Every surviving packet count must equal the RTC ground
			// truth: nothing from the call removed, nothing unrelated
			// kept.
			got := res.RTCUDP.Packets + res.RTCTCP.Packets
			if got != cap.RTCEvents {
				t.Errorf("%s/%s: RTC packets = %d, ground truth %d", app, network, got, cap.RTCEvents)
			}
		}
	}
}

func TestP2PMediaNotRemovedByLocalIPRule(t *testing.T) {
	// Wi-Fi P2P media flows between two private addresses; the local-IP
	// rule must keep it because the pair does not appear pre-call.
	_, _, res := generate(t, appsim.WhatsApp, appsim.WiFiP2P)
	foundP2P := false
	for _, s := range res.RTC {
		a, b := s.Key.A.Addr.String(), s.Key.B.Addr.String()
		if (a == "192.168.1.10" && b == "192.168.1.20") || (a == "192.168.1.20" && b == "192.168.1.10") {
			foundP2P = true
		}
	}
	if !foundP2P {
		t.Error("P2P media stream was filtered out")
	}
}

func TestSignalingTCPKept(t *testing.T) {
	_, _, res := generate(t, appsim.Discord, appsim.WiFiRelay)
	if res.RTCTCP.Streams == 0 {
		t.Error("RTC signaling TCP stream was removed")
	}
}

func TestAPNSRebindingCaughtByThreeTuple(t *testing.T) {
	_, _, res := generate(t, appsim.Zoom, appsim.WiFiRelay)
	found := false
	for key, rm := range res.Removed {
		if rm.Rule == RuleThreeTuple {
			// The APNS destination is 203.0.113.100:5223.
			if key.A.Port == 5223 || key.B.Port == 5223 {
				found = true
			}
		}
	}
	if !found {
		t.Error("in-window APNS stream not removed by the 3-tuple rule")
	}
}

func TestBlocklistedSNIRemoved(t *testing.T) {
	_, _, res := generate(t, appsim.Messenger, appsim.Cellular)
	count := 0
	for _, rm := range res.Removed {
		if rm.Rule == RuleSNI {
			count++
		}
	}
	if count == 0 {
		t.Error("no streams removed by SNI rule")
	}
}

// TestWindowSlackDefault pins the §3.2.1 window expansion: a stream
// starting just inside DefaultWindowSlack before the call survives
// stage 1, one starting just outside it is removed by the timespan rule.
func TestWindowSlackDefault(t *testing.T) {
	start, end := t0, t0.Add(10*time.Second)
	table := flow.NewTable()
	add := func(dstPort uint16, ts time.Time) {
		frame := layers.EncodeUDPv4(netip.MustParseAddr("198.51.100.1"), netip.MustParseAddr("203.0.113.9"), 40000, dstPort, []byte{1, 2, 3, 4})
		pkt, err := layers.Decode(pcap.LinkTypeRaw, frame)
		if err != nil {
			t.Fatal(err)
		}
		table.Add(ts, pkt)
	}
	const inside, outside = 50001, 50002
	add(inside, start.Add(-DefaultWindowSlack+time.Millisecond))
	add(outside, start.Add(-DefaultWindowSlack-time.Millisecond))
	add(inside, end)
	add(outside, end)
	res := Run(table, Config{CallStart: start, CallEnd: end})
	if len(res.RTC) != 1 || res.RTC[0].Key.B.Port != inside && res.RTC[0].Key.A.Port != inside {
		t.Fatalf("RTC = %v, want only the stream starting inside the slack", res.RTC)
	}
	if res.Stage1UDP.Streams != 1 {
		t.Fatalf("stage-1 removals = %d, want 1 (the stream starting outside the slack)", res.Stage1UDP.Streams)
	}
}

func TestMatchesBlocklist(t *testing.T) {
	bl := []string{"web.facebook.com", "example.org"}
	cases := map[string]bool{
		"web.facebook.com":     true,
		"sub.web.facebook.com": true,
		"notfacebook.com":      false,
		"a.example.org":        true,
		"example.org":          true,
		"badexample.org":       false,
	}
	for sni, want := range cases {
		if got := MatchesBlocklist(sni, bl); got != want {
			t.Errorf("MatchesBlocklist(%q) = %v, want %v", sni, got, want)
		}
	}
}

func TestIdempotent(t *testing.T) {
	// Running the filter on the surviving streams only must remove
	// nothing further.
	cap, _, res := generate(t, appsim.FaceTime, appsim.Cellular)
	table2 := flow.NewTable()
	for _, s := range res.RTC {
		for _, p := range s.Packets {
			// Rebuild a decoded packet the quick way: re-encode as UDP
			// or TCP frame and decode it.
			var frame []byte
			if s.Key.Proto == layers.IPProtocolTCP {
				frame = layers.EncodeTCPv4(p.Src.Addr, p.Dst.Addr, layers.TCP{SrcPort: p.Src.Port, DstPort: p.Dst.Port, Flags: p.TCPFlags}, p.Payload)
			} else if p.Src.Addr.Is6() {
				frame = layers.EncodeUDPv6(p.Src.Addr, p.Dst.Addr, p.Src.Port, p.Dst.Port, p.Payload)
			} else {
				frame = layers.EncodeUDPv4(p.Src.Addr, p.Dst.Addr, p.Src.Port, p.Dst.Port, p.Payload)
			}
			pkt, err := layers.Decode(pcap.LinkTypeRaw, frame)
			if err != nil {
				t.Fatal(err)
			}
			table2.Add(p.Timestamp, pkt)
		}
	}
	res2 := Run(table2, Config{CallStart: cap.CallStart, CallEnd: cap.CallEnd})
	if len(res2.RemovedStreams) != 0 {
		for k, rm := range res2.Removed {
			t.Errorf("second pass removed %v: %+v", k, rm)
		}
	}
}

// TestJudgeRules drives every rule on a hand-built capture, once with
// the call window known and once with it unknown (zero CallStart):
// unknown, only the window-independent rules — SNI and port — fire.
func TestJudgeRules(t *testing.T) {
	start, end := t0.Add(10*time.Second), t0.Add(20*time.Second)
	in := start.Add(time.Second)
	public := netip.MustParseAddr("198.51.100.1")
	lan, router := netip.MustParseAddr("192.168.1.10"), netip.MustParseAddr("192.168.1.1")
	server := netip.MustParseAddr("203.0.113.9")
	table := flow.NewTable()
	add := func(ts time.Time, frame []byte) *flow.Stream {
		pkt, err := layers.Decode(pcap.LinkTypeRaw, frame)
		if err != nil {
			t.Fatal(err)
		}
		s, _ := table.AddPacket(ts, pkt, true)
		return s
	}
	udp := func(ts time.Time, src, dst netip.Addr, sport, dport uint16) *flow.Stream {
		return add(ts, layers.EncodeUDPv4(src, dst, sport, dport, []byte{1, 2, 3, 4}))
	}

	timespan := udp(t0, public, server, 40000, 50000)
	udp(in, public, server, 40000, 50000)
	udp(t0, public, server, 40001, 5223) // the pre-call APNS connection
	threeTuple := udp(in, public, server, 40002, 5223)
	hello := tlsinspect.BuildClientHello("sub."+DefaultSNIBlocklist[0], [32]byte{})
	sni := add(in, layers.EncodeTCPv4(public, server, layers.TCP{SrcPort: 40003, DstPort: 443, Flags: layers.TCPAck}, hello))
	udp(t0, lan, router, 40004, 9999) // the pair's pre-call chatter
	localIP := udp(in, lan, router, 40005, 9998)
	port := udp(in, public, server, 40006, 53)
	rtc := udp(in, public, server, 40007, 3478)

	cases := []struct {
		s              *flow.Stream
		known, unknown Rule
	}{
		{timespan, RuleTimespan, ""},
		{threeTuple, RuleThreeTuple, ""},
		{sni, RuleSNI, RuleSNI},
		{localIP, RuleLocalIP, ""},
		{port, RulePort, RulePort},
		{rtc, "", ""},
	}
	for _, c := range cases {
		if got, _ := Judge(table, c.s, start, end); got != c.known {
			t.Errorf("%v, window known: rule %q, want %q", c.s.Key, got, c.known)
		}
		if got, _ := Judge(table, c.s, time.Time{}, time.Time{}); got != c.unknown {
			t.Errorf("%v, window unknown: rule %q, want %q", c.s.Key, got, c.unknown)
		}
	}
	if _, tt := Judge(table, threeTuple, start, end); tt.Port != 5223 {
		t.Errorf("3-tuple verdict names %v, want the :5223 destination", tt)
	}

	// Run attributes the same verdicts and formats their details.
	res := Run(table, Config{CallStart: start, CallEnd: end})
	for _, c := range cases {
		rm, removed := res.Removed[c.s.Key]
		if removed != (c.known != "") || rm.Rule != c.known {
			t.Errorf("%v: Run removal %+v, want rule %q", c.s.Key, rm, c.known)
		}
	}
	if d := res.Removed[sni.Key].Detail; d != "SNI sub."+DefaultSNIBlocklist[0]+" is blocklisted" {
		t.Errorf("SNI detail = %q", d)
	}

	// With a zero window Run treats it as unknown, like the online
	// check: only the window-independent rules remove anything.
	res = Run(table, Config{})
	for _, c := range cases {
		rm, removed := res.Removed[c.s.Key]
		if removed != (c.unknown != "") || rm.Rule != c.unknown {
			t.Errorf("%v: Run removal with zero window %+v, want rule %q", c.s.Key, rm, c.unknown)
		}
	}
	for k, rm := range res.Removed {
		if rm.Rule != RuleSNI && rm.Rule != RulePort {
			t.Errorf("%v: Run with zero window removed by %q", k, rm.Rule)
		}
	}
}
