package migrate

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"code56/internal/bufpool"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/raid5"
	"code56/internal/raid6"
	"code56/internal/telemetry"
	"code56/internal/vdisk"
	"code56/internal/xorblk"
)

// OnlineMigrator implements the paper's Algorithm 2: bidirectional online
// conversion between a RAID-5 and a Code 5-6 RAID-6. While the conversion
// goroutine fills the added diagonal-parity disk stripe by stripe, the
// application keeps reading and writing through the migrator:
//
//   - reads never conflict (the conversion only writes to the new disk) and
//     proceed concurrently;
//   - writes interrupt the conversion (they take priority, per the paper),
//     perform the ordinary RAID-5 read-modify-write, and additionally update
//     the diagonal parity when their stripe has already been converted. A
//     write landing in the stripe currently being converted marks it dirty,
//     and the conversion thread redoes that stripe before advancing.
//
// The RAID-5's block layout is untouched — that is Code 5-6's design — so
// application block addresses mean the same thing before, during and after
// the migration.
//
// Writes take strict priority, as the paper prescribes; a saturating write
// stream therefore stalls the conversion entirely (use Stats to observe
// the interaction, and schedule migrations in low-traffic windows or
// throttle the application — the migrator itself never throttles writes).
type OnlineMigrator struct {
	r5      *raid5.Array
	code    *core.Code56
	rows    int64 // RAID-5 rows covered by the conversion
	stripes int64

	// writeMu serializes application writes: a RAID-5 read-modify-write
	// spans several blocks and must not interleave with another write.
	writeMu sync.Mutex

	mu            sync.Mutex
	cond          *sync.Cond
	pendingWrites int  //c56:guardedby mu
	userPaused    bool //c56:guardedby mu
	parallelism   int  //c56:guardedby mu
	// workers counts conversion goroutines still running; parked, those
	// waiting on writes/pause. nextClaim is the next stripe a worker will
	// claim and cursor the contiguous watermark of converted stripes.
	workers   int   //c56:guardedby mu
	parked    int   //c56:guardedby mu
	nextClaim int64 //c56:guardedby mu
	cursor    int64 //c56:guardedby mu
	// inProgress holds stripes being converted right now; dirtySet,
	// in-progress stripes written concurrently; doneSet, converted stripes
	// above the watermark.
	inProgress map[int64]bool //c56:guardedby mu
	dirtySet   map[int64]bool //c56:guardedby mu
	doneSet    map[int64]bool //c56:guardedby mu
	started    bool           //c56:guardedby mu
	finished   bool           //c56:guardedby mu
	err        error          //c56:guardedby mu
	done       chan struct{}
	// wake is closed (and replaced) by interruptLocked to cut short any
	// worker sleeping in its throttle interval when the migration must
	// react now: cancellation, a conversion error, or Pause.
	wake chan struct{} //c56:guardedby mu

	// throttle, if positive, is slept between stripes to bound the
	// conversion's interference with foreground I/O.
	throttle time.Duration //c56:guardedby mu
	// onProgress, if set, is called (without locks held) after each
	// stripe completes.
	onProgress func(converted, total int64) //c56:guardedby mu
	// journal, if attached, records begin/watermark/finish intent records
	// so a crash mid-migration reopens to a resumable state (see
	// AttachJournal; nil for purely in-memory migrations).
	journal *Journal //c56:guardedby mu

	stats     MigrationStats //c56:guardedby mu
	startTime time.Time      //c56:guardedby mu
	endTime   time.Time      //c56:guardedby mu

	// tel is rebound only before Start (see SetTelemetry), so the running
	// migration reads it without the lock.
	tel onlineTel
	// span is the migrate.online root span, set once by StartContext.
	span *telemetry.Span //c56:guardedby mu
}

// onlineTel holds the migrator's bound telemetry instruments (see README
// "Telemetry" for the metric reference).
type onlineTel struct {
	tr           *telemetry.Tracer
	converted    *telemetry.Counter // stripes converted (incl. redone)
	redone       *telemetry.Counter // stripes reconverted after a racing write
	interrupts   *telemetry.Counter // app writes that interrupted the conversion
	diagUpd      *telemetry.Counter // write-redirect hits on converted stripes
	appReads     *telemetry.Counter // application reads served
	appWrites    *telemetry.Counter // application writes served
	faultRepairs *telemetry.Counter // faulty blocks healed by the conversion
	xors         *telemetry.Counter // conversion XORs (Equation 2 evaluations)
	// redirectXORs counts the extra XORs write redirects spend updating
	// already-converted diagonal parities (kept separate so xors matches
	// the plan's conversion-only accounting).
	redirectXORs *telemetry.Counter
	progress     *telemetry.Gauge // contiguous converted-stripe watermark
	// stripeRate feeds the live stripes/s windows (1 s/10 s/60 s + EWMA)
	// behind ProgressReport.RecentStripesPerSec and the migrate.stripe_rate
	// series of the observability plane.
	stripeRate *telemetry.Rate
}

func bindOnlineTel(reg *telemetry.Registry, tr *telemetry.Tracer) onlineTel {
	return onlineTel{
		tr:           tr,
		converted:    reg.Counter("migrate.stripes_converted"),
		redone:       reg.Counter("migrate.stripes_redone"),
		interrupts:   reg.Counter("migrate.write_interrupts"),
		diagUpd:      reg.Counter("migrate.diagonal_updates"),
		appReads:     reg.Counter("migrate.app_reads"),
		appWrites:    reg.Counter("migrate.app_writes"),
		faultRepairs: reg.Counter("migrate.fault_repairs"),
		xors:         reg.Counter("migrate.conversion_xors"),
		redirectXORs: reg.Counter("migrate.redirect_xors"),
		progress:     reg.Gauge("migrate.progress_stripes"),
		stripeRate:   reg.Rate("migrate.stripe_rate"),
	}
}

// MigrationStats counts the online conversion's interactions with the
// foreground workload.
type MigrationStats struct {
	// StripesConverted counts completed stripe conversions, including
	// repeats of dirtied stripes.
	StripesConverted int64
	// StripesRedone counts stripes that had to be reconverted because an
	// application write raced with their conversion.
	StripesRedone int64
	// WriteInterrupts counts application writes served while the
	// conversion was active (each interrupted it briefly).
	WriteInterrupts int64
	// DiagonalUpdates counts writes that also updated an
	// already-converted stripe's diagonal parity.
	DiagonalUpdates int64
	// FaultsRepaired counts blocks the conversion found unreadable (latent
	// or persistent-transient errors), reconstructed from RAID-5
	// redundancy, and rewrote in place.
	FaultsRepaired int64
}

// NewOnlineMigrator prepares a migration of the given RAID-5 array to a
// Code 5-6 RAID-6. rows is the number of RAID-5 stripe rows holding data;
// it must be a positive multiple of p-1 (one Code 5-6 stripe absorbs p-1
// rows). The array must have p-1 disks, p prime. Left-oriented layouts use
// the paper's default Code 5-6; right-oriented layouts use the mirrored
// orientation of the paper's Fig. 7 — either way the existing parities are
// already in place.
func NewOnlineMigrator(a *raid5.Array, rows int64) (*OnlineMigrator, error) {
	p := a.M() + 1
	if !layout.IsPrime(p) {
		return nil, fmt.Errorf("migrate: %d disks + 1 = %d is not prime; use NewVirtualPlan for arbitrary sizes", a.M(), p)
	}
	orient := core.Left
	if a.Layout() == raid5.RightAsymmetric || a.Layout() == raid5.RightSymmetric {
		orient = core.Right
	}
	if rows <= 0 || rows%int64(p-1) != 0 {
		return nil, fmt.Errorf("migrate: rows = %d must be a positive multiple of %d", rows, p-1)
	}
	code, err := core.NewOriented(p, orient)
	if err != nil {
		return nil, err
	}
	m := &OnlineMigrator{
		r5:          a,
		code:        code,
		rows:        rows,
		stripes:     rows / int64(p-1),
		parallelism: 1,
		inProgress:  make(map[int64]bool),
		dirtySet:    make(map[int64]bool),
		doneSet:     make(map[int64]bool),
		done:        make(chan struct{}),
		wake:        make(chan struct{}),
		tel:         bindOnlineTel(nil, nil),
	}
	m.cond = sync.NewCond(&m.mu)
	return m, nil
}

// SetTelemetry rebinds the migrator's counters, progress gauge and tracer.
// Pass nil for either argument to use the process-wide defaults. Call
// before Start.
func (m *OnlineMigrator) SetTelemetry(reg *telemetry.Registry, tr *telemetry.Tracer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tel = bindOnlineTel(reg, tr)
}

// Code returns the Code 5-6 instance used by the migration.
func (m *OnlineMigrator) Code() *core.Code56 { return m.code }

// BlockSize returns the underlying array's block size. The migrator serves
// application I/O in whole blocks of this size (see Read / Write).
func (m *OnlineMigrator) BlockSize() int { return m.r5.BlockSize() }

// StripeConversionBytes returns how many bytes of disk I/O converting one
// stripe costs: the data blocks each diagonal chain reads plus the parity
// block it writes. It is the unit a bandwidth timetable divides a target
// rate by to derive the per-stripe throttle sleep (rate shaping happens in
// units of conversion I/O, the quantity that actually contends with
// foreground traffic).
func (m *OnlineMigrator) StripeConversionBytes() int64 {
	p := m.code.P()
	blocks := 0
	for i := 0; i < p-1; i++ {
		blocks += len(m.code.Chains()[p-1+i].Covers) + 1
	}
	return int64(blocks) * int64(m.r5.BlockSize())
}

// SetThrottle makes each conversion worker sleep d between stripes,
// bounding its interference with foreground I/O. Zero disables throttling;
// negative durations are treated as zero.
//
// SetThrottle is safe to call while the migration runs — the bandwidth
// timetable retunes it on schedule boundaries — and a mid-flight change
// takes effect immediately: workers sleeping out the old interval are
// woken, re-read the new value, and pace their next stripes by it, so
// switching to a faster rate (or to off) never waits out a stale sleep.
func (m *OnlineMigrator) SetThrottle(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if d == m.throttle {
		return // no change: don't wake sleepers for nothing
	}
	m.throttle = d
	if m.started && !m.finished {
		m.interruptLocked()
	}
}

// Throttle returns the current per-stripe pacing sleep (0 = unthrottled).
func (m *OnlineMigrator) Throttle() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.throttle
}

// SetParallelism sets how many stripes are converted concurrently (each by
// its own goroutine; default 1, matching the paper's single conversion
// thread). Stripe conversions are independent — they read disjoint rows
// and write disjoint diagonal-parity blocks — so parallelism trades
// foreground interference for conversion speed. Call before Start.
func (m *OnlineMigrator) SetParallelism(k int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("migrate: already started")
	}
	if k < 1 {
		return fmt.Errorf("migrate: parallelism %d must be >= 1", k)
	}
	m.parallelism = k
	return nil
}

// SetProgressFunc installs a callback invoked (without locks held) after
// every converted stripe. Install before Start.
func (m *OnlineMigrator) SetProgressFunc(fn func(converted, total int64)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.onProgress = fn
}

// ResumeFrom sets the conversion cursor before Start, for resuming an
// interrupted migration (e.g. after reopening its array directory): stripes
// below the cursor are assumed already converted.
func (m *OnlineMigrator) ResumeFrom(stripe int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("migrate: already started")
	}
	if stripe < 0 || stripe > m.stripes {
		return fmt.Errorf("migrate: resume stripe %d outside [0,%d]", stripe, m.stripes)
	}
	m.cursor = stripe
	m.nextClaim = stripe
	return nil
}

// interruptLocked wakes any worker sleeping in its throttle interval: the
// current wake channel is closed (a closed channel stays readable, so no
// wakeup is ever missed) and replaced for future sleeps. Caller holds m.mu.
//
//c56:requires mu
func (m *OnlineMigrator) interruptLocked() {
	close(m.wake)
	m.wake = make(chan struct{})
}

// Pause blocks the conversion at the next stripe boundaries and returns
// once every conversion worker is parked (or the conversion finished).
// Application I/O continues; Resume restarts the conversion.
func (m *OnlineMigrator) Pause() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.userPaused = true
	m.interruptLocked()
	m.span.Event("migrate.pause", telemetry.A("at_stripe", m.cursor))
	m.cond.Broadcast()
	for m.started && !m.finished && m.parked < m.workers {
		m.cond.Wait()
	}
}

// Resume releases a Pause.
func (m *OnlineMigrator) Resume() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.userPaused = false
	m.span.Event("migrate.resume", telemetry.A("at_stripe", m.cursor))
	m.cond.Broadcast()
}

// Start adds the diagonal-parity disk (Algorithm 2, Step 2) — unless a
// resumed migration already has it — and launches the conversion goroutine
// (Step 3).
func (m *OnlineMigrator) Start() error {
	return m.StartContext(context.Background())
}

// StartContext is Start bound to a context: when ctx is cancelled the
// conversion workers stop at the next stripe boundary and Wait returns
// ctx's error. Cancellation never corrupts the array — the contiguous
// converted-stripe watermark (Progress) only advances over fully converted
// stripes, the RAID-5 data and parity layout is untouched by design, and
// application reads and writes keep working throughout. A cancelled
// migration is resumed by creating a new migrator and calling
// ResumeFrom(converted) with the watermark (any partially written diagonal
// blocks above it are simply rewritten).
func (m *OnlineMigrator) StartContext(ctx context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return errors.New("migrate: already started")
	}
	m.started = true
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				m.mu.Lock()
				if !m.finished && m.err == nil {
					m.err = ctx.Err()
					m.span.Event("migrate.cancelled", telemetry.A("at_stripe", m.cursor))
				}
				m.interruptLocked()
				m.cond.Broadcast()
				m.mu.Unlock()
			case <-m.done:
			}
		}()
	}
	m.startTime = time.Now()
	if m.r5.Disks().Len() < m.code.P() {
		if _, err := m.r5.Disks().Attach(); err != nil {
			m.started = false
			return fmt.Errorf("migrate: adding diagonal-parity disk: %w", err)
		}
	}
	if m.journal != nil {
		err := m.journal.begin(BeginRecord{
			Rows:      m.rows,
			BlockSize: m.r5.BlockSize(),
			DataDisks: m.code.P() - 1,
			Layout:    m.r5.Layout().String(),
		})
		if err != nil {
			m.started = false
			return err
		}
	}
	m.span = m.tel.tr.StartSpan("migrate.online",
		telemetry.A("stripes", m.stripes),
		telemetry.A("disks", m.code.P()-1),
		telemetry.A("resume_from", m.cursor),
		telemetry.A("parallelism", m.parallelism))
	m.workers = m.parallelism
	go m.convert()
	return nil
}

// Wait blocks until the conversion thread finishes and returns its error.
func (m *OnlineMigrator) Wait() error {
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Progress returns how many of the total stripes are fully converted.
func (m *OnlineMigrator) Progress() (converted, total int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cursor, m.stripes
}

// ProgressReport is a coherent point-in-time view of a running (or
// finished) migration, taken under the migrator's lock: every field
// describes the same instant, so Converted, Stats and the derived
// rate/ETA never disagree with each other.
type ProgressReport struct {
	// Converted is the contiguous converted-stripe watermark; Total is
	// the migration's stripe count.
	Converted, Total int64
	// Started and Finished report the migration's lifecycle state.
	Started, Finished bool
	// Paused reports an explicit Pause() in effect.
	Paused bool
	// Workers is how many conversion goroutines are still running; Parked
	// is how many of them are waiting out application writes or a pause.
	Workers, Parked int
	// Error is the terminal error's message, empty while healthy. (A
	// string, not an error, so the report serializes cleanly over the
	// observability plane's /progress endpoint.)
	Error string
	// Elapsed is the time since Start (frozen once the conversion ends).
	Elapsed time.Duration
	// StripesPerSec is the mean conversion rate so far (0 before Start).
	StripesPerSec float64
	// RecentStripesPerSec is the smoothed current conversion rate (the
	// migrate.stripe_rate EWMA): unlike the lifetime mean it reacts within
	// seconds when the conversion stalls behind foreground writes or a
	// throttle change.
	RecentStripesPerSec float64
	// ETA estimates the remaining conversion time from the mean rate;
	// zero when unknown (not started or no stripes converted yet).
	ETA time.Duration
	// Stats snapshots the interaction counters at the same instant.
	Stats MigrationStats
}

// State names the migration's lifecycle phase: "pending", "running",
// "parked" (workers waiting out foreground writes), "paused", "finished"
// or "failed". It is what the observability plane's health checker and the
// watch mode display.
func (p ProgressReport) State() string {
	switch {
	case !p.Started:
		return "pending"
	case p.Error != "":
		return "failed"
	case p.Finished:
		return "finished"
	case p.Paused:
		return "paused"
	case p.Workers > 0 && p.Parked == p.Workers:
		return "parked"
	default:
		return "running"
	}
}

// Fraction returns the converted fraction in [0, 1].
func (p ProgressReport) Fraction() float64 {
	if p.Total == 0 {
		return 1
	}
	return float64(p.Converted) / float64(p.Total)
}

// ProgressSnapshot returns a coherent progress report for live reporting
// (the CLIs' percent / stripes-per-second / ETA line).
func (m *OnlineMigrator) ProgressSnapshot() ProgressReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := ProgressReport{
		Converted: m.cursor,
		Total:     m.stripes,
		Started:   m.started,
		Finished:  m.finished,
		Paused:    m.userPaused,
		Workers:   m.workers,
		Parked:    m.parked,
		Stats:     m.stats,
	}
	if m.err != nil {
		r.Error = m.err.Error()
	}
	if !m.started {
		return r
	}
	r.RecentStripesPerSec = m.tel.stripeRate.Snapshot().EWMA
	switch {
	case m.finished:
		r.Elapsed = m.endTime.Sub(m.startTime)
	default:
		r.Elapsed = time.Since(m.startTime)
	}
	if secs := r.Elapsed.Seconds(); secs > 0 && r.Converted > 0 {
		r.StripesPerSec = float64(r.Converted) / secs
		if remaining := r.Total - r.Converted; remaining > 0 {
			r.ETA = time.Duration(float64(remaining) / r.StripesPerSec * float64(time.Second))
		}
	}
	return r
}

// Stats returns a snapshot of the migration's interaction counters.
func (m *OnlineMigrator) Stats() MigrationStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Result wraps the converted disks as a RAID-6 array. Call after Wait.
func (m *OnlineMigrator) Result() (*raid6.Array, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.finished {
		return nil, errors.New("migrate: conversion not finished")
	}
	if m.err != nil {
		return nil, m.err
	}
	return raid6.Wrap(m.code, m.r5.Disks())
}

// convert runs the conversion workers of Algorithm 2 (one per unit of
// parallelism) and marks the migration finished when they drain.
func (m *OnlineMigrator) convert() {
	defer close(m.done)
	// Snapshot the worker count under the lock: SetParallelism rejects
	// changes after Start, but convert runs on its own goroutine and must
	// not read the field while another Start-era caller still holds mu.
	m.mu.Lock()
	workers := m.parallelism
	m.mu.Unlock()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.worker()
		}()
	}
	wg.Wait()
	m.mu.Lock()
	if m.journal != nil && m.err == nil && m.cursor == m.stripes {
		// Commit the completed conversion while still unfinished: the
		// final checkpoint, the finish record, and the atomic meta flip
		// to RAID-6 (all idempotent; a crash inside redoes the remainder
		// on the next ResumeMigration).
		j, total := m.journal, m.stripes
		m.mu.Unlock()
		err := j.finish(total)
		m.mu.Lock()
		if err != nil && m.err == nil {
			m.err = err
		}
	}
	m.finished = true
	m.endTime = time.Now()
	span, st, err := m.span, m.stats, m.err
	m.cond.Broadcast()
	m.mu.Unlock()
	attrs := []telemetry.Attr{
		telemetry.A("stripes_converted", st.StripesConverted),
		telemetry.A("stripes_redone", st.StripesRedone),
		telemetry.A("write_interrupts", st.WriteInterrupts),
		telemetry.A("diagonal_updates", st.DiagonalUpdates),
	}
	if err != nil {
		attrs = append(attrs, telemetry.A("error", err.Error()))
	}
	span.End(attrs...)
}

// waitRunnable parks the calling worker while application writes are in
// flight or the migration is paused. Caller must hold m.mu; the lock is
// held on return. Returns false if the worker should exit (error elsewhere).
//
//c56:requires mu
func (m *OnlineMigrator) waitRunnable() bool {
	for (m.pendingWrites > 0 || m.userPaused) && m.err == nil {
		m.parked++
		m.cond.Broadcast() // unblock Pause()
		m.cond.Wait()
		m.parked--
	}
	return m.err == nil
}

// worker claims stripes and converts them until the work (or the migration)
// is over.
func (m *OnlineMigrator) worker() {
	defer func() {
		m.mu.Lock()
		m.workers--
		m.cond.Broadcast()
		m.mu.Unlock()
	}()
	for {
		m.mu.Lock()
		if !m.waitRunnable() || m.nextClaim >= m.stripes {
			m.mu.Unlock()
			return
		}
		st := m.nextClaim
		m.nextClaim++
		m.inProgress[st] = true
		delete(m.dirtySet, st)
		m.mu.Unlock()

		for {
			if err := m.convertStripe(st); err != nil {
				m.mu.Lock()
				if m.err == nil {
					m.err = err
				}
				delete(m.inProgress, st)
				m.interruptLocked()
				m.cond.Broadcast()
				m.mu.Unlock()
				return
			}
			m.mu.Lock()
			m.stats.StripesConverted++
			m.tel.converted.Inc()
			m.tel.stripeRate.Inc()
			if m.dirtySet[st] {
				// A concurrent write raced with our reads; redo the
				// stripe (after letting pending writes drain).
				delete(m.dirtySet, st)
				m.stats.StripesRedone++
				m.tel.redone.Inc()
				m.span.Event("migrate.stripe_redone", telemetry.A("stripe", st))
				if !m.waitRunnable() {
					delete(m.inProgress, st)
					m.mu.Unlock()
					return
				}
				m.mu.Unlock()
				continue
			}
			break
		}
		// Stripe committed: advance the contiguous watermark.
		delete(m.inProgress, st)
		m.doneSet[st] = true
		for m.doneSet[m.cursor] {
			delete(m.doneSet, m.cursor)
			m.cursor++
		}
		m.tel.progress.Set(m.cursor)
		progress, total := m.cursor, m.stripes
		fn := m.onProgress
		j := m.journal
		throttle := m.throttle
		wake := m.wake // captured under the same lock as throttle
		if m.err != nil || m.userPaused {
			throttle = 0 // don't sleep into a state we must react to
		}
		m.cond.Broadcast()
		m.mu.Unlock()

		if j != nil {
			// progress was read before the checkpoint's disk sync, so the
			// journaled watermark never claims unsynced stripes.
			if err := j.maybeCheckpoint(progress); err != nil {
				m.mu.Lock()
				if m.err == nil {
					m.err = err
				}
				m.interruptLocked()
				m.cond.Broadcast()
				m.mu.Unlock()
				return
			}
		}
		if fn != nil {
			fn(progress, total)
		}
		if throttle > 0 {
			// Interruptible throttle: cancellation, errors and Pause close
			// wake, so a worker never holds up Wait (or Pause) for a full
			// throttle interval.
			t := time.NewTimer(throttle)
			select {
			case <-t.C:
			case <-wake:
				t.Stop()
			}
		}
	}
}

// convertStripe computes and writes the p-1 diagonal parity blocks of one
// stripe (the conversion thread's body in Algorithm 2: read the data
// blocks, calculate the diagonal parity per Equation 2, write it).
func (m *OnlineMigrator) convertStripe(st int64) error {
	p := m.code.P()
	g := m.code.Geometry()
	base := st * int64(g.Rows)
	buf := bufpool.Get(m.r5.BlockSize())
	defer bufpool.Put(buf)
	parity := bufpool.Get(m.r5.BlockSize())
	defer bufpool.Put(parity)
	newDisk := m.r5.Disks().Disk(p - 1)
	for i := 0; i < p-1; i++ {
		// Writes may be waiting between chains; let them through. A
		// migration error elsewhere (including context cancellation) aborts
		// this stripe — its partial diagonal writes sit above the watermark
		// and are redone on resume.
		m.mu.Lock()
		for m.pendingWrites > 0 && m.err == nil {
			m.cond.Wait()
		}
		if err := m.err; err != nil {
			m.mu.Unlock()
			return err
		}
		m.mu.Unlock()

		// The first contributor is copied, the rest are folded in, so the
		// XOR tally matches the planner's n-1 accounting (and the plan's
		// Metrics aggregates) exactly.
		ch := m.code.Chains()[p-1+i] // diagonal chain i
		for j, c := range ch.Covers {
			dst := parity
			if j > 0 {
				dst = buf
			}
			if err := m.readOrRepair(base+int64(c.Row), c.Col, dst); err != nil {
				return fmt.Errorf("migrate: converting stripe %d: %w", st, err)
			}
			if j > 0 {
				xorblk.Xor(parity, buf)
				m.tel.xors.Inc()
			}
		}
		if err := newDisk.Write(base+int64(ch.Parity.Row), parity); err != nil {
			return fmt.Errorf("migrate: converting stripe %d: %w", st, err)
		}
	}
	return nil
}

// readOrRepair reads one RAID-5 cell for the conversion. A latent sector
// error (or a transient that survived the disk's retry policy) is served
// by RAID-5 reconstruction and the block is rewritten in place — healing
// the medium, so the conversion leaves the array healthier than it found
// it. A fail-stopped disk cannot be repaired in place: the error
// propagates, stopping the conversion at its contiguous watermark; after
// Replace and Rebuild a new migrator resumes from there with ResumeFrom.
func (m *OnlineMigrator) readOrRepair(row int64, disk int, buf []byte) error {
	err := m.r5.Disks().Disk(disk).Read(row, buf)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, vdisk.ErrLatent) || errors.Is(err, vdisk.ErrTransient):
	default:
		return err
	}
	// The in-place heal must not interleave with an application write to the
	// same block: conversion I/O runs while Write() proceeds (that is the
	// dirtySet/redo design), and a write landing between ReconstructBlock and
	// the rewrite below would be silently overwritten with the stale
	// reconstructed value while the RAID-5 parity — already updated for the
	// new data — stays inconsistent with it. writeMu serializes the heal with
	// the write path; the stripe redo only recomputes diagonal parity and
	// could not undo either.
	m.writeMu.Lock()
	defer m.writeMu.Unlock()
	// Re-check under the lock: a racing write may already have rewritten the
	// block (clearing the latent error), in which case its current content is
	// the value to convert and there is nothing to heal.
	switch rerr := m.r5.Disks().Disk(disk).Read(row, buf); {
	case rerr == nil:
		return nil
	case errors.Is(rerr, vdisk.ErrLatent) || errors.Is(rerr, vdisk.ErrTransient):
	default:
		return rerr
	}
	if rerr := m.r5.ReconstructBlock(row, disk, buf); rerr != nil {
		return fmt.Errorf("reconstructing after %v: %w", err, rerr)
	}
	// Rewriting clears the latent error (writes remap the sector).
	if werr := m.r5.Disks().Disk(disk).Write(row, buf); werr != nil {
		return werr
	}
	m.mu.Lock()
	m.stats.FaultsRepaired++
	span := m.span
	m.mu.Unlock()
	m.tel.faultRepairs.Inc()
	span.Event("migrate.fault_repaired",
		telemetry.A("row", row), telemetry.A("disk", disk))
	return nil
}

// Read serves an application read (Algorithm 2's online thread): it never
// conflicts with the conversion.
func (m *OnlineMigrator) Read(logical int64, buf []byte) error {
	m.tel.appReads.Inc()
	return m.r5.ReadBlock(logical, buf)
}

// Write serves an application write: it interrupts the conversion thread,
// performs the RAID-5 read-modify-write, updates the diagonal parity if the
// block's stripe is already converted, and resumes the conversion.
func (m *OnlineMigrator) Write(logical int64, data []byte) error {
	if len(data) != m.r5.BlockSize() {
		return fmt.Errorf("migrate: write of %d bytes, want %d", len(data), m.r5.BlockSize())
	}
	row, disk := m.r5.Locate(logical)
	if row >= m.rows {
		return fmt.Errorf("migrate: row %d beyond migrated region (%d rows)", row, m.rows)
	}

	m.writeMu.Lock()
	defer m.writeMu.Unlock()

	m.mu.Lock()
	m.pendingWrites++ // interrupt the conversion workers
	st := row / int64(m.code.P()-1)
	needDiag := m.started && (st < m.cursor || m.doneSet[st])
	if m.inProgress[st] {
		m.dirtySet[st] = true
	}
	if m.started && !m.finished {
		m.stats.WriteInterrupts++
		m.tel.interrupts.Inc()
	}
	if needDiag {
		m.stats.DiagonalUpdates++
		m.tel.diagUpd.Inc()
	}
	m.tel.appWrites.Inc()
	m.mu.Unlock()

	err := m.writeLocked(logical, row, disk, data, needDiag)

	m.mu.Lock()
	m.pendingWrites--
	m.cond.Broadcast() // resume the conversion thread
	m.mu.Unlock()
	return err
}

func (m *OnlineMigrator) writeLocked(logical, row int64, disk int, data []byte, needDiag bool) error {
	blockSize := m.r5.BlockSize()
	old := bufpool.Get(blockSize)
	defer bufpool.Put(old)
	if err := m.r5.Disks().Disk(disk).Read(row, old); err != nil {
		// Serve the old value degraded: read-modify-write must go on even
		// when the block's disk failed or the sector is bad — the RAID-5
		// write path below handles the actual update.
		if !errors.Is(err, vdisk.ErrFailed) && !errors.Is(err, vdisk.ErrLatent) &&
			!errors.Is(err, vdisk.ErrTransient) {
			return err
		}
		if rerr := m.r5.ReconstructBlock(row, disk, old); rerr != nil {
			return fmt.Errorf("migrate: degraded old-value read: %w", rerr)
		}
	}
	if err := m.r5.WriteBlock(logical, data); err != nil {
		return err
	}
	if !needDiag {
		return nil
	}
	// Apply the XOR delta to the diagonal parity of the block's chain.
	delta := bufpool.Get(blockSize)
	defer bufpool.Put(delta)
	xorblk.XorInto(delta, old, data)
	m.tel.redirectXORs.Add(2) // delta + fold into the diagonal parity
	rows := int64(m.code.P() - 1)
	inRow := int(row % rows)
	chainIdx := m.code.DiagonalChainOf(inRow, disk)
	addr := (row/rows)*rows + int64(chainIdx)
	newDisk := m.r5.Disks().Disk(m.code.P() - 1)
	parity := bufpool.Get(blockSize)
	defer bufpool.Put(parity)
	if err := newDisk.Read(addr, parity); err != nil {
		if !errors.Is(err, vdisk.ErrLatent) && !errors.Is(err, vdisk.ErrTransient) {
			return err
		}
		// The stored diagonal parity is unreadable: recompute it from the
		// chain's data blocks, which already hold the new value, and
		// rewrite it (healing the sector).
		return m.rewriteDiagonal(row/rows, chainIdx, parity, delta)
	}
	xorblk.Xor(parity, delta)
	return newDisk.Write(addr, parity)
}

// rewriteDiagonal recomputes diagonal chain i of converted stripe st from
// its RAID-5 data blocks into parity (buf is scratch) and writes it. The
// caller holds writeMu, so no application write races the data reads.
func (m *OnlineMigrator) rewriteDiagonal(st int64, i int, parity, buf []byte) error {
	rows := int64(m.code.P() - 1)
	ch := m.code.Chains()[m.code.P()-1+i]
	for j, c := range ch.Covers {
		dst := parity
		if j > 0 {
			dst = buf
		}
		row := st*rows + int64(c.Row)
		if err := m.r5.Disks().Disk(c.Col).Read(row, dst); err != nil {
			if rerr := m.r5.ReconstructBlock(row, c.Col, dst); rerr != nil {
				return fmt.Errorf("migrate: recomputing diagonal parity of stripe %d: %w", st, rerr)
			}
		}
		if j > 0 {
			xorblk.Xor(parity, buf)
			m.tel.redirectXORs.Inc()
		}
	}
	if err := m.r5.Disks().Disk(m.code.P()-1).Write(st*rows+int64(ch.Parity.Row), parity); err != nil {
		return err
	}
	m.mu.Lock()
	m.stats.FaultsRepaired++
	m.mu.Unlock()
	m.tel.faultRepairs.Inc()
	return nil
}

// Downgrade converts a Code 5-6 RAID-6 back to a RAID-5 (the paper's
// RAID-6→RAID-5 direction): it detaches the diagonal-parity disk and
// returns it. The remaining disks form the original RAID-5 unchanged.
func Downgrade(a *raid6.Array) error {
	if _, ok := a.Code().(*core.Code56); !ok {
		return fmt.Errorf("migrate: downgrade requires Code 5-6, got %s", a.Code().Name())
	}
	if a.Disks().RemoveLast() == nil {
		return errors.New("migrate: empty array")
	}
	return nil
}
