package swap

import (
	"cswap/internal/metrics"
	"cswap/internal/trace"
)

// Option mutates simulation Options — the functional-options constructor
// arguments of NewOptions.
type Option func(*Options)

// NewOptions returns the standard jitter/interference configuration
// (DefaultOptions with seed 0) with opts applied in order. Nil options are
// skipped.
func NewOptions(opts ...Option) Options {
	o := DefaultOptions(0)
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	return o
}

// WithSeed sets the jitter stream seed.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithJitter sets the log-normal duration jitter σ (0 disables noise).
func WithJitter(sigma float64) Option { return func(o *Options) { o.Jitter = sigma } }

// WithInterference sets the SM-contention fraction charged to the compute
// stream for software compression kernels.
func WithInterference(f float64) Option { return func(o *Options) { o.Interference = f } }

// WithTrace records every job as a span on t.
func WithTrace(t *trace.Timeline) Option { return func(o *Options) { o.Trace = t } }

// WithObserver attaches the unified observability surface: busy-time and
// decision metrics land in its registry.
func WithObserver(obs *metrics.Observer) Option { return func(o *Options) { o.Observer = obs } }

// WithPipelinedCodec toggles the double-buffered-swapping ablation.
func WithPipelinedCodec(on bool) Option { return func(o *Options) { o.PipelinedCodec = on } }

// WithEagerPrefetch toggles the issue-all-prefetches-at-backward-start
// policy.
func WithEagerPrefetch(on bool) Option { return func(o *Options) { o.EagerPrefetch = on } }
