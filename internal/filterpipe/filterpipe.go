// Package filterpipe implements the paper's two-stage unrelated-traffic
// filter (§3.2).
//
// Stage 1 removes streams whose active timespan is not fully enclosed in
// the call window expanded by a small slack (§3.2.1). Stage 2 removes
// intra-call background activity with four protocol-aware heuristics
// (§3.2.2): destination 3-tuple timing, TLS SNI blocklisting, local-IP
// exclusion, and well-known-port exclusion. Everything that survives is
// the RTC traffic handed to the DPI and compliance stages, and per-stage
// accounting reproduces Table 1.
package filterpipe

import (
	"net/netip"
	"strings"
	"time"

	"github.com/rtc-compliance/rtcc/internal/flow"
	"github.com/rtc-compliance/rtcc/internal/layers"
	"github.com/rtc-compliance/rtcc/internal/metrics"
	"github.com/rtc-compliance/rtcc/internal/obs"
)

// DefaultWindowSlack is the call-window expansion of §3.2.1 ("2 seconds
// before and after the call").
const DefaultWindowSlack = 2 * time.Second

// DefaultSNIBlocklist is the known-non-RTC domain list. The paper built
// its list from 7.5 hours of idle-phone traffic; ours is seeded with the
// paper's examples plus the domains the background generator emits.
var DefaultSNIBlocklist = []string{
	"oauth2.googleapis.com",
	"web.facebook.com",
	"api.apple-cloudkit.com",
	"mesu.apple.com",
	"adservice.example-tracker.com",
	"itunes.apple.com",
}

// nonRTCPorts is the port-based exclusion set, following the paper's
// examples (DNS 53, DHCP 67/547, SSDP 1900) extended with the standard
// local-service ports from the IANA registry.
var nonRTCPorts = map[uint16]bool{
	53:   true, // DNS
	67:   true, // DHCP
	68:   true, // DHCP client
	123:  true, // NTP
	137:  true, // NetBIOS
	138:  true,
	139:  true,
	161:  true, // SNMP
	547:  true, // DHCPv6
	1900: true, // SSDP
	5353: true, // mDNS
	5355: true, // LLMNR
}

// Rule names a filtering heuristic for reporting.
type Rule string

// Filtering rules.
const (
	RuleTimespan   Rule = "timespan"
	RuleThreeTuple Rule = "3-tuple timing"
	RuleSNI        Rule = "TLS SNI"
	RuleLocalIP    Rule = "local IP"
	RulePort       Rule = "port-based"
)

// Removal records why a stream was removed.
type Removal struct {
	Stage  int // 1 or 2
	Rule   Rule
	Detail string
}

// Config parameterizes one filtering run.
type Config struct {
	// CallStart and CallEnd delimit the annotated call window; the
	// filter expands it by DefaultWindowSlack on both sides. A zero
	// CallStart leaves the window unknown, and then only the SNI and
	// port rules run (see Judge).
	CallStart, CallEnd time.Time
	// Metrics, when non-nil, receives per-stage accounting: input
	// packets/streams, removals labelled by stage and rule, and RTC
	// survivors. Recording happens once per run from the already
	// computed Result, so it costs nothing per packet.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives per-stream filter decisions
	// (admitted / filtered with stage and rule). Like Metrics, the
	// events are emitted once per run from the computed Result, in
	// deterministic stream order.
	Trace *obs.Pipeline
}

// Result is the outcome of a filtering run.
type Result struct {
	// RTC holds the surviving streams, in insertion order.
	RTC []*flow.Stream
	// Removed maps each removed stream to its reason.
	Removed map[flow.Key]Removal
	// RemovedStreams lists removed streams in insertion order.
	RemovedStreams []*flow.Stream

	// Accounting for Table 1, split by transport.
	RawUDP, RawTCP       flow.Counts
	Stage1UDP, Stage1TCP flow.Counts
	Stage2UDP, Stage2TCP flow.Counts
	RTCUDP, RTCTCP       flow.Counts
}

// Run applies both filter stages to the streams of table: every
// stream gets Judge's verdict, and only here is it formatted into a
// Removal.
func Run(table *flow.Table, cfg Config) *Result {
	res := &Result{Removed: make(map[flow.Key]Removal)}
	streams := table.Streams()
	tally(&res.RawUDP, &res.RawTCP, streams)

	var stage1, stage2 []*flow.Stream
	for _, s := range streams {
		rule, tt := Judge(table, s, cfg.CallStart, cfg.CallEnd)
		switch rule {
		case "":
			res.RTC = append(res.RTC, s)
			continue
		case RuleTimespan:
			stage1 = append(stage1, s)
		default:
			stage2 = append(stage2, s)
		}
		res.Removed[s.Key] = removal(rule, s, tt)
	}
	tally(&res.Stage1UDP, &res.Stage1TCP, stage1)
	tally(&res.Stage2UDP, &res.Stage2TCP, stage2)
	tally(&res.RTCUDP, &res.RTCTCP, res.RTC)
	res.RemovedStreams = append(stage1, stage2...)
	record(cfg.Metrics, res)
	emitTrace(cfg.Trace, res)
	return res
}

// Judge returns the first rule that removes s, a stream of table, in
// the paper's order — stage-1 timespan, then the stage-2 heuristics
// 3-tuple timing, TLS SNI, local IP, and port — or "" when s survives
// both stages. For the 3-tuple rule it also returns the offending
// destination tuple, the first of s.DstTuples active outside the
// window. A zero callStart means the call window is not known yet:
// only the window-independent rules (SNI, port) run then.
//
// Judge reads only summaries that never shrink as packets are added —
// the stream's span, SNI, and ports, and the table's 3-tuple spans and
// address-pair first-seen times — and every rule fires on a threshold
// that evidence can cross but never uncross. Its verdict is therefore
// monotone: a stream removed on partial evidence is removed on the
// full evidence too (possibly by an earlier rule). That is what lets
// the streaming analyzer call Judge online, mid-capture, and drop a
// removed stream's payloads at once. It does not allocate.
func Judge(table *flow.Table, s *flow.Stream, callStart, callEnd time.Time) (Rule, flow.ThreeTuple) {
	known := !callStart.IsZero()
	if known {
		winStart := callStart.Add(-DefaultWindowSlack)
		winEnd := callEnd.Add(DefaultWindowSlack)
		if s.FirstSeen.Before(winStart) || s.LastSeen.After(winEnd) {
			return RuleTimespan, flow.ThreeTuple{}
		}
		// Persistent services rebind source ports but keep their
		// destination 3-tuple, so one seen outside the window marks
		// every stream that uses it.
		for _, tt := range s.DstTuples {
			if sp, ok := table.ThreeTupleSpan(tt); ok && (sp.First.Before(winStart) || sp.Last.After(winEnd)) {
				return RuleThreeTuple, tt
			}
		}
	}
	if s.SNI != "" && MatchesBlocklist(s.SNI, DefaultSNIBlocklist) {
		return RuleSNI, flow.ThreeTuple{}
	}
	// Link-local/unique-local/private endpoints whose address pair was
	// also active pre-call: LAN management chatter, not P2P media.
	if known && (isLocalScope(s.Key.A.Addr) || isLocalScope(s.Key.B.Addr)) {
		if first, ok := table.PairFirstSeen(s.Key); ok && first.Before(callStart) {
			return RuleLocalIP, flow.ThreeTuple{}
		}
	}
	if nonRTCPorts[s.Key.A.Port] || nonRTCPorts[s.Key.B.Port] {
		return RulePort, flow.ThreeTuple{}
	}
	return "", flow.ThreeTuple{}
}

// removal formats a Judge verdict for the Result.
func removal(rule Rule, s *flow.Stream, tt flow.ThreeTuple) Removal {
	switch rule {
	case RuleTimespan:
		return Removal{Stage: 1, Rule: rule, Detail: "stream span not enclosed in the expanded call window"}
	case RuleThreeTuple:
		return Removal{Stage: 2, Rule: rule, Detail: "destination 3-tuple " + tt.String() + " active outside the call window"}
	case RuleSNI:
		return Removal{Stage: 2, Rule: rule, Detail: "SNI " + s.SNI + " is blocklisted"}
	case RuleLocalIP:
		return Removal{Stage: 2, Rule: rule, Detail: "local address pair also active pre-call"}
	}
	return Removal{Stage: 2, Rule: rule, Detail: "well-known non-RTC port"}
}

// emitTrace emits the per-stream filter verdicts of a completed run:
// admissions in survivor order, then removals in stage order — the
// same deterministic order Result records them in.
func emitTrace(p *obs.Pipeline, res *Result) {
	if p == nil {
		return
	}
	for _, s := range res.RTC {
		p.StreamAdmitted(s.Key.String())
	}
	for _, s := range res.RemovedStreams {
		rm := res.Removed[s.Key]
		p.StreamFiltered(s.Key.String(), rm.Stage, string(rm.Rule), rm.Detail)
	}
}

// ruleSlug maps a filtering rule to its metric label value.
func ruleSlug(r Rule) string {
	switch r {
	case RuleTimespan:
		return "timespan"
	case RuleThreeTuple:
		return "three_tuple"
	case RuleSNI:
		return "sni"
	case RuleLocalIP:
		return "local_ip"
	case RulePort:
		return "port"
	}
	return "unknown"
}

// record folds a completed filtering run into the registry.
func record(reg *metrics.Registry, res *Result) {
	if reg == nil {
		return
	}
	add := func(name string, c flow.Counts, labels ...metrics.Label) {
		reg.Counter(name+"_streams_total", labels...).Add(uint64(c.Streams))
		reg.Counter(name+"_packets_total", labels...).Add(uint64(c.Packets))
		reg.Counter(name+"_bytes_total", labels...).Add(uint64(c.Bytes))
	}
	add("filter_in", res.RawUDP, metrics.L("transport", "udp"))
	add("filter_in", res.RawTCP, metrics.L("transport", "tcp"))
	add("filter_rtc", res.RTCUDP, metrics.L("transport", "udp"))
	add("filter_rtc", res.RTCTCP, metrics.L("transport", "tcp"))
	for _, s := range res.RemovedStreams {
		rm := res.Removed[s.Key]
		stage := "1"
		if rm.Stage == 2 {
			stage = "2"
		}
		labels := []metrics.Label{
			metrics.L("stage", stage),
			metrics.L("rule", ruleSlug(rm.Rule)),
		}
		reg.Counter("filter_removed_streams_total", labels...).Inc()
		reg.Counter("filter_removed_packets_total", labels...).Add(uint64(s.NPackets))
		reg.Counter("filter_removed_bytes_total", labels...).Add(uint64(s.Bytes))
	}
}

func tally(udp, tcp *flow.Counts, streams []*flow.Stream) {
	var u, t []*flow.Stream
	for _, s := range streams {
		if s.Key.Proto == layers.IPProtocolTCP {
			t = append(t, s)
		} else {
			u = append(u, s)
		}
	}
	*udp = flow.Count(u)
	*tcp = flow.Count(t)
}

// MatchesBlocklist reports whether sni matches a blocklist entry
// exactly or as a parent domain.
func MatchesBlocklist(sni string, blocklist []string) bool {
	for _, d := range blocklist {
		if sni == d || strings.HasSuffix(sni, "."+d) {
			return true
		}
	}
	return false
}

// isLocalScope reports whether an address is IPv6 link-local
// (fe80::/10), unique-local (fc00::/7), IPv4 private, or multicast —
// the scopes §3.2.2's local-IP rule targets.
func isLocalScope(a netip.Addr) bool {
	return a.IsLinkLocalUnicast() || a.IsLinkLocalMulticast() || a.IsMulticast() ||
		a.IsPrivate()
}
