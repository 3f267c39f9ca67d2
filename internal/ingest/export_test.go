package ingest

import "github.com/rtc-compliance/rtcc/internal/core"

// NewWithQueue is New with an explicit per-shard queue depth and batch
// size, so the drop and back-pressure tests can fill a queue with a
// handful of datagrams.
func NewWithQueue(acfg core.AnalyzerConfig, opts core.Options, cfg Config, depth, batch int) (*ShardedAnalyzer, error) {
	return newTier(acfg, opts, cfg, depth, batch)
}
