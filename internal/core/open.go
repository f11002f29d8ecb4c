package core

import (
	"io"

	"flashdc/internal/obs"
)

// OpenOption configures Open. Options follow the functional-option
// pattern so the entry point can grow without breaking callers.
type OpenOption func(*openSettings)

type openSettings struct {
	recover  bool
	observer *obs.Observer
}

// WithRecovery makes Open crash-tolerant: a metadata image that fails
// validation yields a cold (empty) cache and a RecoveryReport instead
// of an error. Without it a rejected image is an error and no cache is
// returned.
func WithRecovery() OpenOption {
	return func(o *openSettings) { o.recover = true }
}

// WithObserver attaches an observability sink to the opened cache (see
// Cache.AttachObserver). A nil or disabled observer is a no-op, so
// callers can pass their configured observer unconditionally.
func WithObserver(ob *obs.Observer) OpenOption {
	return func(o *openSettings) { o.observer = ob }
}

// Open is the single entry point for building a cache: fresh when r is
// nil, warm from the metadata image otherwise. The RecoveryReport
// describes how the cache came up; its Err field carries the load
// failure when a cold start was forced (only possible with
// WithRecovery — without it the failure is returned as the error and
// the cache is nil). With a nil reader Open cannot fail.
func Open(cfg Config, r io.Reader, opts ...OpenOption) (*Cache, RecoveryReport, error) {
	var set openSettings
	for _, opt := range opts {
		opt(&set)
	}
	attach := func(c *Cache, how string) *Cache {
		if set.observer.Enabled() {
			c.AttachObserver(set.observer)
			set.observer.Event(obs.Event{Kind: obs.KindOpen, Block: -1, To: how})
		}
		return c
	}
	if r == nil {
		return attach(New(cfg), "fresh"), RecoveryReport{}, nil
	}
	c, err := loadMetadata(cfg, r)
	if err == nil {
		return attach(c, "image"), RecoveryReport{}, nil
	}
	rep := RecoveryReport{ColdStart: true, Err: err}
	if set.recover {
		return attach(New(cfg), "cold_start"), rep, nil
	}
	return nil, rep, err
}
