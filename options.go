package code56

import (
	"context"
	"fmt"
	"time"

	"code56/internal/parallel"
)

// Settings collects every knob the facade constructors and context entry
// points accept. Zero values mean "use the default"; apply options with the
// With* helpers rather than building a Settings by hand.
type Settings struct {
	// Workers bounds the goroutines a parallel entry point may use.
	// 0 means GOMAXPROCS; 1 forces the serial in-order path.
	Workers int
	// ChunkSize is the per-goroutine split (bytes) for chunked multi-source
	// XOR. 0 means the engine default (64 KiB).
	ChunkSize int
	// BatchBytes is the contiguous-stripe byte budget a worker claims at a
	// time in batched bulk operations. 0 means the engine default (1 MiB,
	// sized to a per-core L2 slice).
	BatchBytes int
	// BlockSize is the simulated block size in bytes (default 4096).
	BlockSize int
	// Layout selects the RAID-5 parity rotation (default LeftAsymmetric).
	Layout RAID5Layout
	// Throttle inserts a pause after each stripe an OnlineMigrator
	// converts (0 = full speed).
	Throttle time.Duration
	// RetryMax and RetryBase describe the disks' transient-error retry
	// policy (see WithRetry). Zero means no retries.
	RetryMax  int
	RetryBase time.Duration
	// Faults, when non-nil, arms the constructed disks' deterministic
	// fault injector with this scenario (see WithFaults).
	Faults *FaultConfig
	// Backend selects where a constructed array's blocks live (see
	// WithBackend): "" or "mem:" for in-memory stores, "file:<dir>" for
	// durable sparse image files in <dir>.
	Backend string
	// CheckpointInterval is how many converted stripes may pass between
	// a journaled migration's intent-log checkpoints (0 = the default,
	// 16; see WithCheckpointInterval).
	CheckpointInterval int64

	// err records the first invalid option value; see Err.
	err error
}

// Err returns the first error produced while applying options (an option
// given an out-of-range value), or nil. Every facade entry point checks it
// before doing any work, so invalid values surface as errors rather than
// being silently replaced by defaults.
func (s *Settings) Err() error { return s.err }

// setErr keeps the first option error.
func (s *Settings) setErr(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Option adjusts one Settings field. All facade constructors and context
// entry points take a trailing ...Option; irrelevant options are ignored,
// so a single option list can be shared across calls. An option given an
// invalid value records an error that the receiving entry point returns
// (see Settings.Err).
type Option func(*Settings)

// WithWorkers bounds the worker goroutines of a parallel entry point.
// n == 0 selects the default (GOMAXPROCS); n == 1 forces serial execution.
// Negative values are an error.
func WithWorkers(n int) Option {
	return func(s *Settings) {
		if n < 0 {
			s.setErr(fmt.Errorf("code56: WithWorkers(%d): worker count cannot be negative (0 selects GOMAXPROCS)", n))
			return
		}
		s.Workers = n
	}
}

// WithChunkSize sets the per-goroutine block split, in bytes, for chunked
// multi-source XOR. Non-positive sizes are an error (omit the option for
// the engine default).
func WithChunkSize(b int) Option {
	return func(s *Settings) {
		if b <= 0 {
			s.setErr(fmt.Errorf("code56: WithChunkSize(%d): chunk size must be positive (omit the option for the default)", b))
			return
		}
		s.ChunkSize = b
	}
}

// WithBatchBytes sets the contiguous-work byte budget a worker claims at a
// time in batched bulk operations (encode, rebuild, scrub, plan execution):
// adjacent stripes are grouped until the batch reaches this many bytes, so
// each worker streams sequentially through disk addresses and one batch
// stays cache-resident. Non-positive sizes are an error (omit the option
// for the engine default of 1 MiB).
func WithBatchBytes(b int) Option {
	return func(s *Settings) {
		if b <= 0 {
			s.setErr(fmt.Errorf("code56: WithBatchBytes(%d): batch budget must be positive (omit the option for the default)", b))
			return
		}
		s.BatchBytes = b
	}
}

// WithBlockSize sets the simulated block size in bytes. Non-positive sizes
// are an error (omit the option for the 4096-byte default).
func WithBlockSize(b int) Option {
	return func(s *Settings) {
		if b <= 0 {
			s.setErr(fmt.Errorf("code56: WithBlockSize(%d): block size must be positive (omit the option for the default)", b))
			return
		}
		s.BlockSize = b
	}
}

// WithLayout selects the RAID-5 parity rotation.
func WithLayout(l RAID5Layout) Option { return func(s *Settings) { s.Layout = l } }

// WithThrottle paces an online migration: the converter sleeps d after each
// stripe, bounding its interference with application I/O. Negative
// durations are an error.
func WithThrottle(d time.Duration) Option {
	return func(s *Settings) {
		if d < 0 {
			s.setErr(fmt.Errorf("code56: WithThrottle(%v): throttle cannot be negative", d))
			return
		}
		s.Throttle = d
	}
}

// WithRetry installs a transient-error retry policy on the disks an array
// constructor creates: a transiently failing I/O is retried up to n times,
// sleeping base, 2*base, 4*base, … between attempts. Negative values are an
// error; n == 0 disables retries.
func WithRetry(n int, base time.Duration) Option {
	return func(s *Settings) {
		if n < 0 || base < 0 {
			s.setErr(fmt.Errorf("code56: WithRetry(%d, %v): retry count and backoff base cannot be negative", n, base))
			return
		}
		s.RetryMax, s.RetryBase = n, base
	}
}

// WithFaults arms the deterministic fault injector on the disks an array
// constructor creates (see FaultConfig). An out-of-range config is an
// error.
func WithFaults(cfg FaultConfig) Option {
	return func(s *Settings) {
		if err := cfg.Validate(); err != nil {
			s.setErr(fmt.Errorf("code56: WithFaults: %w", err))
			return
		}
		c := cfg
		s.Faults = &c
	}
}

// WithBackend selects where a constructed array's blocks live. The spec
// grammar:
//
//	""           in-memory stores (the default)
//	"mem:"       in-memory stores, spelled out
//	"file:<dir>" durable sparse image files (one per disk) in <dir>,
//	             created if needed, alongside the directory's meta.json
//	             identity record and wal.log migration intent log
//
// File-backed arrays survive process death: reopen them with
// OpenRAID5Array / OpenRAID6Array, and restart an interrupted migration
// with ResumeMigration. Any other spec is an error.
func WithBackend(spec string) Option {
	return func(s *Settings) {
		if _, _, err := splitBackendSpec(spec); err != nil {
			s.setErr(err)
			return
		}
		s.Backend = spec
	}
}

// WithCheckpointInterval bounds how many converted stripes may pass
// between a journaled migration's intent-log checkpoints. Smaller
// intervals tighten the redo window after a crash at the cost of more
// fsync barriers; the default is 16 stripes. Non-positive intervals are
// an error. Ignored for migrations over in-memory arrays (they have no
// intent log).
func WithCheckpointInterval(stripes int64) Option {
	return func(s *Settings) {
		if stripes <= 0 {
			s.setErr(fmt.Errorf("code56: WithCheckpointInterval(%d): interval must be positive", stripes))
			return
		}
		s.CheckpointInterval = stripes
	}
}

// ApplyOptions folds opts over the package defaults and returns the result.
// Useful for callers that route one option list to several entry points;
// check Err before using the result.
func ApplyOptions(opts ...Option) Settings {
	s := Settings{
		BlockSize: 4096,
		Layout:    LeftAsymmetric,
	}
	for _, o := range opts {
		if o != nil {
			o(&s)
		}
	}
	return s
}

// applyDiskPolicies arms WithFaults / WithRetry on a constructed array's
// disks.
func (s *Settings) applyDiskPolicies(disks *DiskArray) error {
	if s.Faults != nil {
		if err := disks.SetFaults(*s.Faults); err != nil {
			return err
		}
	}
	if s.RetryMax > 0 || s.RetryBase > 0 {
		if err := disks.SetRetry(s.RetryMax, s.RetryBase); err != nil {
			return err
		}
	}
	return nil
}

// engineOpts translates facade settings to the stripe engine's options.
func (s Settings) engineOpts() []parallel.Option {
	var out []parallel.Option
	if s.Workers > 0 {
		out = append(out, parallel.WithWorkers(s.Workers))
	}
	if s.ChunkSize > 0 {
		out = append(out, parallel.WithChunkSize(s.ChunkSize))
	}
	if s.BatchBytes > 0 {
		out = append(out, parallel.WithBatchBytes(s.BatchBytes))
	}
	return out
}

// NewRAID5Array creates a RAID-5 array of m fresh simulated disks, honoring
// WithBackend, WithBlockSize, WithLayout, WithFaults and WithRetry.
// With a "file:<dir>" backend the array's blocks live in sparse image
// files under <dir> and the directory's meta.json identity record is
// written, so OpenRAID5Array can reassemble the array later.
func NewRAID5Array(m int, opts ...Option) (*RAID5, error) {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return nil, err
	}
	a, err := newRAID5Backend(m, s)
	if err != nil {
		return nil, err
	}
	if err := s.applyDiskPolicies(a.Disks()); err != nil {
		return nil, err
	}
	return a, nil
}

// NewRAID6Array creates a RAID-6 array over fresh simulated disks, honoring
// WithBackend, WithBlockSize, WithFaults and WithRetry.
// With a "file:<dir>" backend the blocks live in sparse image files under
// <dir> and meta.json is written, so OpenRAID6Array can reassemble the
// array later.
func NewRAID6Array(code Code, opts ...Option) (*RAID6, error) {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return nil, err
	}
	a, err := newRAID6Backend(code, s)
	if err != nil {
		return nil, err
	}
	if err := s.applyDiskPolicies(a.Disks()); err != nil {
		return nil, err
	}
	return a, nil
}

// NewMigrator prepares an online RAID-5 → Code 5-6 migration, honoring
// WithWorkers (conversion parallelism), WithThrottle and
// WithCheckpointInterval. It is the option-based form of
// NewOnlineMigrator, plus durability: when the array is file-backed (its
// disks came from a "file:<dir>" backend), the migration is automatically
// journaled through the directory's intent log, making it crash-resumable
// via ResumeMigration.
func NewMigrator(a *RAID5, rows int64, opts ...Option) (*OnlineMigrator, error) {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return nil, err
	}
	m, err := NewOnlineMigrator(a, rows)
	if err != nil {
		return nil, err
	}
	if s.Workers > 0 {
		if err := m.SetParallelism(s.Workers); err != nil {
			return nil, err
		}
	}
	if s.Throttle > 0 {
		m.SetThrottle(s.Throttle)
	}
	if err := attachJournalIfDurable(m, a, s); err != nil {
		return nil, err
	}
	return m, nil
}

// RunPlan executes a conversion plan under ctx with the plan's independent
// stripes spread across WithWorkers goroutines (see
// Executor.RunContext).
func RunPlan(ctx context.Context, ex *Executor, opts ...Option) error {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return err
	}
	return ex.RunContext(ctx, s.engineOpts()...)
}

// EncodeArrayStripes (re)computes all parities of stripes 0..stripes-1 of a
// RAID-6 array, fanning stripes out over WithWorkers goroutines.
func EncodeArrayStripes(ctx context.Context, a *RAID6, stripes int64, opts ...Option) error {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return err
	}
	return a.EncodeStripesContext(ctx, stripes, s.engineOpts()...)
}

// RebuildArray rebuilds the given replaced disks of a RAID-6 array across
// stripes 0..stripes-1, with stripes spread over WithWorkers goroutines
// (see Array.RebuildContext).
func RebuildArray(ctx context.Context, a *RAID6, stripes int64, disks []int, opts ...Option) error {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return err
	}
	return a.RebuildContext(ctx, stripes, disks, s.engineOpts()...)
}

// ScrubArrayMode scans stripes 0..stripes-1 of a RAID-6 array for latent
// sector errors and silent corruption, with stripes spread over
// WithWorkers goroutines (see Array.ScrubContextMode). ScrubRepair
// rewrites what it can; ScrubCheck only detects and counts.
func ScrubArrayMode(ctx context.Context, a *RAID6, stripes int64, mode ScrubMode, opts ...Option) (ScrubReport, error) {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return ScrubReport{}, err
	}
	return a.ScrubContextMode(ctx, stripes, mode, s.engineOpts()...)
}

// RecoverStripes rebuilds a failed column across many stripes concurrently
// using a column-recovery plan. Equivalent to ColumnRecoveryPlan's
// ExecuteStripes with the facade's options.
func RecoverStripes(ctx context.Context, plan ColumnRecoveryPlan, code Code, stripes []*Stripe, opts ...Option) (DecodeStats, error) {
	s := ApplyOptions(opts...)
	if err := s.Err(); err != nil {
		return DecodeStats{}, err
	}
	return plan.ExecuteStripes(ctx, code, stripes, nil, nil, s.engineOpts()...)
}
