// Command rtcgen generates synthetic RTC experiment captures as pcap
// files, reproducing the paper's 6-application × 3-network matrix (or a
// subset). Alongside the pcaps it writes a manifest.json recording each
// capture's annotated call window, which rtccheck consumes.
//
// Usage:
//
//	rtcgen -out traces/ -runs 2 -duration 30s
//	rtcgen -out traces/ -app Zoom -network wifi-relay -duration 60s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	rtcc "github.com/rtc-compliance/rtcc"
	"github.com/rtc-compliance/rtcc/internal/cmdutil"
	"github.com/rtc-compliance/rtcc/internal/pipeline"
)

type manifestEntry struct {
	File      string    `json:"file"`
	App       string    `json:"app"`
	Network   string    `json:"network"`
	Mode      string    `json:"mode"`
	Seed      uint64    `json:"seed"`
	CallStart time.Time `json:"call_start"`
	CallEnd   time.Time `json:"call_end"`
	Packets   int       `json:"packets"`
	// Impairment accounting, present when any impairment knob is set.
	Impair     string `json:"impair,omitempty"`
	Dropped    int    `json:"dropped,omitempty"`
	Duplicated int    `json:"duplicated,omitempty"`
	Reordered  int    `json:"reordered,omitempty"`
	Rebound    int    `json:"rebound,omitempty"`
}

// genFlags holds rtcgen's flag surface (pinned by the golden surface
// test).
type genFlags struct {
	fs                       *flag.FlagSet
	outDir, appFlag, netFlag *string
	runs                     *int
	duration, prePost        *time.Duration
	rate                     *int
	seed                     *uint64
	background, dtls         *bool
	impair                   *string
	loss                     *float64
	jitter                   *time.Duration
	reorder, dup             *float64
	rebind                   *int
	burst                    *bool
	bitrateVar               *float64
	version                  *bool
}

func newFlags() *genFlags {
	fs := flag.NewFlagSet("rtcgen", flag.ExitOnError)
	return &genFlags{
		fs:         fs,
		outDir:     fs.String("out", "traces", "output directory"),
		appFlag:    fs.String("app", "", "restrict to one application (default: all six)"),
		netFlag:    fs.String("network", "", "restrict to one network configuration (default: all three)"),
		runs:       fs.Int("runs", 1, "repetitions per app × network cell"),
		duration:   fs.Duration("duration", 30*time.Second, "call duration (paper: 5m)"),
		prePost:    fs.Duration("prepost", 10*time.Second, "pre-call and post-call capture length (paper: 60s)"),
		rate:       fs.Int("rate", 25, "media packets per second per stream"),
		seed:       fs.Uint64("seed", 1, "base seed"),
		background: fs.Bool("background", true, "include unrelated background traffic"),
		dtls:       fs.Bool("dtls", false, "emit a standards-compliant DTLS-SRTP handshake on the media stream"),
		impair:     fs.String("impair", "", "named impairment profile (clean, loss2, burst5, jitter30, dup3, rebind2)"),
		loss:       fs.Float64("loss", 0, "i.i.d. UDP loss probability [0,1)"),
		jitter:     fs.Duration("jitter", 0, "uniform per-datagram queueing delay bound"),
		reorder:    fs.Float64("reorder", 0, "probability of a late-spike reordering a datagram"),
		dup:        fs.Float64("dup", 0, "probability of duplicating a datagram"),
		rebind:     fs.Int("rebind", 0, "number of mid-call NAT rebinding events"),
		burst:      fs.Bool("burst", false, "frame-granular video bursting with bit-rate variance"),
		bitrateVar: fs.Float64("bitrate-var", 0, "encoder bit-rate variance fraction with -burst (default 0.25)"),
		version:    cmdutil.VersionFlag(fs),
	}
}

func main() {
	f := newFlags()
	f.fs.Parse(os.Args[1:]) //nolint:errcheck // ExitOnError
	var (
		outDir     = f.outDir
		appFlag    = f.appFlag
		netFlag    = f.netFlag
		runs       = f.runs
		duration   = f.duration
		prePost    = f.prePost
		rate       = f.rate
		seed       = f.seed
		background = f.background
		dtls       = f.dtls
		impair     = f.impair
		loss       = f.loss
		jitter     = f.jitter
		reorder    = f.reorder
		dup        = f.dup
		rebind     = f.rebind
		burst      = f.burst
		bitrateVar = f.bitrateVar
		version    = f.version
	)

	if *version {
		cmdutil.PrintVersion(os.Stdout, "rtcgen")
		return
	}

	profile, err := impairProfile(*impair, *loss, *jitter, *reorder, *dup, *rebind)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtcgen:", err)
		os.Exit(1)
	}
	cfg := genConfig{
		outDir: *outDir, appFlag: *appFlag, netFlag: *netFlag,
		runs: *runs, duration: *duration, prePost: *prePost,
		rate: *rate, seed: *seed, background: *background, dtls: *dtls,
		impair: profile, burst: *burst, bitrateVar: *bitrateVar,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "rtcgen:", err)
		os.Exit(1)
	}
}

// impairProfile composes the impairment profile from the named base (if
// any) with the individual knob overrides.
func impairProfile(name string, loss float64, jitter time.Duration, reorder, dup float64, rebind int) (rtcc.ImpairProfile, error) {
	var p rtcc.ImpairProfile
	if name != "" {
		base, ok := rtcc.ImpairProfileByName(name)
		if !ok {
			return p, fmt.Errorf("unknown impairment profile %q", name)
		}
		p = base
	}
	if loss > 0 {
		p.Loss = loss
	}
	if jitter > 0 {
		p.Jitter = jitter
	}
	if reorder > 0 {
		p.Reorder = reorder
	}
	if dup > 0 {
		p.Dup = dup
	}
	if rebind > 0 {
		p.Rebind = rebind
	}
	if p.Active() && p.Name == "" {
		p.Name = "custom"
	}
	return p, nil
}

type genConfig struct {
	outDir, appFlag, netFlag string
	runs                     int
	duration, prePost        time.Duration
	rate                     int
	seed                     uint64
	background, dtls         bool
	impair                   rtcc.ImpairProfile
	burst                    bool
	bitrateVar               float64
}

func run(c genConfig) error {
	outDir, appFlag, netFlag := c.outDir, c.appFlag, c.netFlag
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	opts := rtcc.MatrixOptions{
		Runs:         c.runs,
		CallDuration: c.duration,
		PrePost:      c.prePost,
		MediaRate:    c.rate,
		Start:        time.Now().UTC().Truncate(time.Second),
		BaseSeed:     c.seed,
		Background:   c.background,
		DTLS:         c.dtls,
		Impair:       c.impair,
		Burst:        c.burst,
		BitrateVar:   c.bitrateVar,
	}
	if appFlag != "" {
		app, err := pipeline.ParseApp(appFlag)
		if err != nil {
			return err
		}
		opts.Apps = []rtcc.App{app}
	}
	configs := rtcc.Matrix(opts)
	if netFlag != "" {
		network, err := pipeline.ParseNetwork(netFlag)
		if err != nil {
			return err
		}
		var filtered []rtcc.CaptureConfig
		for _, c := range configs {
			if c.Network == network {
				filtered = append(filtered, c)
			}
		}
		configs = filtered
	}

	var manifest []manifestEntry
	for i, cfg := range configs {
		cap, err := rtcc.GenerateCapture(cfg)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("%03d_%s_%s.pcap", i,
			strings.ReplaceAll(strings.ToLower(string(cfg.App)), " ", ""),
			strings.ReplaceAll(strings.ToLower(cfg.Network.String()), " ", "-"))
		path := filepath.Join(outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := cap.WritePCAP(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		entry := manifestEntry{
			File:      name,
			App:       string(cfg.App),
			Network:   cfg.Network.String(),
			Mode:      cap.Mode.String(),
			Seed:      cfg.Seed,
			CallStart: cap.CallStart,
			CallEnd:   cap.CallEnd,
			Packets:   len(cap.Events),
		}
		if cfg.Impair.Active() {
			entry.Impair = cfg.Impair.Label()
			entry.Dropped = cap.Impair.Dropped
			entry.Duplicated = cap.Impair.Duplicated
			entry.Reordered = cap.Impair.Reordered
			entry.Rebound = cap.Impair.Rebound
		}
		manifest = append(manifest, entry)
		fmt.Printf("wrote %s (%d packets, mode %s)\n", path, len(cap.Events), cap.Mode)
	}

	mf, err := os.Create(filepath.Join(outDir, "manifest.json"))
	if err != nil {
		return err
	}
	defer mf.Close()
	enc := json.NewEncoder(mf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(manifest); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d captures)\n", filepath.Join(outDir, "manifest.json"), len(manifest))
	return nil
}
