package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// This file is the one shard scheduler behind both sweep kinds: journal
// replay → dispatch along each shard's failover route → straggler
// watchdog → at-most-once accept → merge. A kind (Sweep, SweepFusion)
// supplies only its partition with per-shard routes and requests, and
// its merge and streaming functions (sweepSpec).

// Counters are the dispatch counters every sweep kind reports. Shard
// results are counted at-most-once, however many attempts ran.
type Counters struct {
	Elapsed      time.Duration
	Shards       int
	Redispatched int64 // failover attempts after a node refused or failed a shard
	Stolen       int64 // duplicate attempts launched by the straggler watchdog
	Discarded    int64 // duplicate attempts dropped or aborted once another settled their shard
	Replayed     int   // shards restored from the checkpoint journal, not dispatched
	// JournalErrors counts shard results that merged but could not be
	// made durable (append or fsync failed). The sweep still completes;
	// a later resume re-dispatches those shards.
	JournalErrors int64

	// TraceID is the distributed trace the sweep ran under (empty when
	// tracing was off). It is the key for pulling node-local span
	// segments and assembling the stitched fleet trace.
	TraceID string
}

// sweepSpec is what one sweep kind hands the scheduler.
type sweepSpec struct {
	kind  string      // journal record kind
	hash  string      // canonical sweep hash; keys the journal file
	runs  []*shardRun // the partition
	attrs []obs.Attr  // kind-specific fleet.sweep span attributes
	// merge folds one settled shard's record into the kind's result. It
	// runs exactly once per shard, under the sweep lock.
	merge func(rec *journalRecord)
	// stream hands a settled shard to the kind's Options callback,
	// outside the sweep lock.
	stream func(sr *shardRun, rec *journalRecord, replayed bool)
}

// shardRun is one shard's dispatch state.
type shardRun struct {
	shard dse.Shard
	req   any      // serve.DSERequest or serve.FusionRequest, scoped to the shard
	route []string // failover order, preferred node first
	// hash is the canonical hash of the shard's scoped request; it keys
	// the shard's journal record, so a resumed sweep only replays a
	// record into the exact same slice of the space.
	hash string

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	cursor int // next route position to try
	live   map[int]liveAttempt
	nextID int
	stole  bool
	done   bool // guarded by sweep.mu, not sr.mu
}

// liveAttempt is one in-flight request the watchdog can judge.
type liveAttempt struct {
	start time.Time
	host  string
}

// sweep is the per-sweep coordinator state.
type sweep struct {
	f      *Fleet
	spec   sweepSpec
	ctx    context.Context
	cancel context.CancelFunc
	jnl    *journal // nil when checkpointing is off
	wg     sync.WaitGroup

	mu        sync.Mutex
	c         Counters
	latencies []time.Duration
	completed int
	err       error

	doneCh chan struct{}
}

// run schedules one sweep and returns its counters once every shard has
// settled. It fails when the context is cancelled, a shard exhausts its
// failover budget, or a node refuses a shard with a hard 4xx.
func (f *Fleet) run(ctx context.Context, sp sweepSpec) (Counters, error) {
	start := time.Now()
	runs := sp.runs
	// Open the write-ahead journal before anything is dispatched: a
	// checkpointed sweep that cannot journal must fail loudly rather
	// than silently run undurable.
	var jnl *journal
	if f.opts.CheckpointDir != "" {
		var err error
		if jnl, err = openJournal(f.opts.CheckpointDir, sp.kind, sp.hash, f.opts.Resume); err != nil {
			return Counters{}, err
		}
	}

	ctx, span := obs.Start(ctx, "fleet.sweep", append(sp.attrs,
		obs.Int("shards", len(runs)), obs.Int("hosts", len(f.opts.Hosts)))...)
	defer span.End()
	traceID := span.TraceID()
	if traceID != "" {
		// Stamp one request ID across every shard request the sweep fans
		// out, so all nodes' access logs grep by the sweep's identity.
		ctx = client.WithRequestID(ctx, "sweep-"+traceID[:16])
	}

	sw := &sweep{
		f:      f,
		spec:   sp,
		jnl:    jnl,
		doneCh: make(chan struct{}),
	}
	sw.ctx, sw.cancel = context.WithCancel(ctx)
	defer sw.cancel()
	for _, sr := range runs {
		sr.ctx, sr.cancel = context.WithCancel(sw.ctx)
		sr.live = make(map[int]liveAttempt, 2)
	}

	f.sweeps.Add(1)
	f.shards.Add(int64(len(runs)))

	for _, sr := range runs {
		// A journal record only restores into the shard whose
		// scoped-request hash and partition shape it was written for, so
		// a changed host count or grid simply re-dispatches instead of
		// merging the wrong slice.
		if jnl != nil {
			if rec, ok := jnl.lookup(sr.hash); ok && rec.Of == len(runs) && rec.Shard == sr.shard.Index {
				sw.settle(sr, rec, 0, true)
				continue
			}
		}
		sw.wg.Add(1)
		go sw.runShard(sr)
	}
	watchdogDone := make(chan struct{})
	go func() { defer close(watchdogDone); sw.watchdog() }()

	select {
	case <-sw.doneCh:
	case <-sw.ctx.Done(): // caller cancelled, or abort
	}
	sw.cancel()
	sw.wg.Wait()
	<-watchdogDone

	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.completed < len(runs) {
		// The sweep did not finish: keep the journal on disk so a later
		// Resume replays the shards that were durably accepted.
		if jnl != nil {
			jnl.close()
		}
		if sw.err != nil {
			return Counters{}, sw.err
		}
		return Counters{}, fmt.Errorf("fleet: sweep cancelled: %w", ctx.Err())
	}
	if jnl != nil {
		jnl.finish() // complete: nothing left to resume
	}
	c := sw.c
	c.Elapsed = time.Since(start)
	c.Shards = len(runs)
	c.TraceID = traceID
	f.mu.Lock()
	f.lastLatencies = sw.latencies
	f.mu.Unlock()
	span.SetAttr(obs.Int64("redispatched", c.Redispatched), obs.Int64("stolen", c.Stolen),
		obs.Int("replayed", c.Replayed))
	return c, nil
}

// runShard walks the shard's failover route until a result is accepted
// or the attempt budget runs out. A hard 4xx fails the sweep at once:
// it is the request's fault, and every node would refuse it the same
// way.
func (sw *sweep) runShard(sr *shardRun) {
	defer sw.wg.Done()
	budget := sw.f.opts.Rounds * len(sr.route)
	var lastErr error
	for n := 0; n < budget; n++ {
		if sr.ctx.Err() != nil {
			return
		}
		host, wrapped := sr.nextHost(sw.f)
		// Every node has been tried this round; back off before the next
		// wrap so a fully-open ring doesn't spin.
		if wrapped && n > 0 && !sleepCtx(sr.ctx, time.Duration(n)*25*time.Millisecond) {
			return
		}
		err := sw.attempt(sr, host, false)
		if err == nil || sr.ctx.Err() != nil {
			return
		}
		if requestFault(err) {
			sw.abort(fmt.Errorf("fleet: shard %d/%d: %w", sr.shard.Index, sr.shard.Of, err))
			return
		}
		lastErr = err
		sw.noteRedispatch(sr, host, err)
	}
	sw.abort(fmt.Errorf("fleet: shard %d/%d failed after %d attempts: %w",
		sr.shard.Index, sr.shard.Of, budget, lastErr))
}

// requestFault reports a hard 4xx: anything but 408 and 429, which
// stay retryable because another node may have capacity.
func requestFault(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status >= 400 && apiErr.Status < 500 &&
		apiErr.Status != http.StatusRequestTimeout && apiErr.Status != http.StatusTooManyRequests
}

// abort fails the sweep with err (the first failure wins) and cancels
// every attempt.
func (sw *sweep) abort(err error) {
	sw.mu.Lock()
	if sw.err == nil {
		sw.err = err
	}
	sw.mu.Unlock()
	sw.cancel()
}

// nextHost advances the shard's route cursor, preferring hosts whose
// breaker is not open and that the health prober considers routable;
// when every host is open or unhealthy it returns the cursor host
// anyway (the fast-fail keeps the attempt budget moving, probes
// half-open breakers, and lets a just-recovered node prove itself
// before the prober notices). wrapped reports that the cursor passed
// the route start, i.e. a full failover cycle elapsed.
func (sr *shardRun) nextHost(f *Fleet) (host string, wrapped bool) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	n := len(sr.route)
	for i := 0; i < n; i++ {
		h := sr.route[(sr.cursor+i)%n]
		if f.clients[h].BreakerState() != client.BreakerOpen && f.routable(h) {
			wrapped = (sr.cursor+i)%n == 0
			sr.cursor = (sr.cursor + i + 1) % n
			return h, wrapped
		}
	}
	h := sr.route[sr.cursor%n]
	wrapped = sr.cursor%n == 0
	sr.cursor = (sr.cursor + 1) % n
	return h, wrapped
}

// call is the one place a shard request leaves the coordinator: it
// posts the shard's scoped request to one node and returns the response
// in the journal record field of its kind.
func (sr *shardRun) call(ctx context.Context, c *client.Client) (rec journalRecord, err error) {
	switch req := sr.req.(type) {
	case serve.DSERequest:
		rec.DSE, err = c.DSE(ctx, req)
	case serve.FusionRequest:
		rec.Fusion, err = c.Fusion(ctx, req)
	}
	return rec, err
}

// attempt runs one shard request against one host, holding one of the
// host's InflightPerNode slots, and settles an accepted result. A nil
// return means the shard is settled (success or superseded), not
// necessarily that this attempt's response won.
func (sw *sweep) attempt(sr *shardRun, host string, stolen bool) error {
	select {
	case sw.f.sem[host] <- struct{}{}:
	case <-sr.ctx.Done():
		return nil
	}
	defer func() { <-sw.f.sem[host] }()
	if sr.ctx.Err() != nil {
		return nil // settled or cancelled while waiting for the slot
	}

	sr.mu.Lock()
	id := sr.nextID
	sr.nextID++
	start := time.Now()
	sr.live[id] = liveAttempt{start: start, host: host}
	sr.mu.Unlock()
	defer func() {
		sr.mu.Lock()
		delete(sr.live, id)
		sr.mu.Unlock()
	}()

	// The shard span starts from sr.ctx (which carries the sweep span)
	// and its context flows into the client, so each HTTP attempt's
	// client.attempt span nests under it and the traceparent header the
	// client injects names this sweep's trace.
	sctx, span := obs.Start(sr.ctx, "fleet.shard",
		obs.Int("shard", sr.shard.Index), obs.String("host", host), obs.Bool("stolen", stolen))
	rec, err := sr.call(sctx, sw.f.clients[host])
	span.SetAttr(obs.Bool("ok", err == nil))
	span.End()
	if err == nil {
		rec.Shard, rec.Of, rec.Hash, rec.Host, rec.Stolen = sr.shard.Index, len(sw.spec.runs), sr.hash, host, stolen
		sw.settle(sr, rec, time.Since(start), false)
		return nil
	}
	if sr.ctx.Err() != nil {
		// Cancelled: if another attempt settled the shard, this one is
		// the losing duplicate.
		sw.mu.Lock()
		if sr.done {
			sw.discard()
		}
		sw.mu.Unlock()
		return nil
	}
	sw.f.mu.Lock()
	sw.f.perNode[host].Errors++
	sw.f.mu.Unlock()
	return err
}

// settle merges a shard result exactly once — a dispatched response, or
// (replayed) a journal record restored before dispatch; late duplicates
// from stolen or raced attempts are counted and dropped. With
// checkpointing on, a dispatched result is appended and fsync'd *before*
// the shard is marked done — a coordinator killed at any instant either
// has the shard durable or will re-dispatch it, never neither. Replayed
// shards record no latency sample, so the straggler watchdog's median
// only reflects shards that actually ran in this process.
func (sw *sweep) settle(sr *shardRun, rec journalRecord, d time.Duration, replayed bool) {
	sw.mu.Lock()
	if sr.done {
		sw.discard()
		sw.mu.Unlock()
		return
	}
	if replayed {
		sw.c.Replayed++
	} else {
		if sw.jnl != nil {
			if err := sw.jnl.append(rec); err != nil {
				// Degrade, don't fail the sweep: the result still merges, a
				// later resume just re-dispatches this shard.
				sw.c.JournalErrors++
				if sp := obs.SpanFrom(sw.ctx); sp != nil {
					sp.Event("fleet.journal_error",
						obs.Int("shard", sr.shard.Index), obs.String("error", err.Error()))
				}
			}
		}
		sw.latencies = append(sw.latencies, d)
		sw.f.mu.Lock()
		sw.f.perNode[rec.Host].Shards++
		sw.f.mu.Unlock()
	}
	sr.done = true
	sw.spec.merge(&rec)
	sw.completed++
	last := sw.completed == len(sw.spec.runs)
	sw.mu.Unlock()

	sr.cancel() // abort the losing attempt, if one is in flight
	sw.spec.stream(sr, &rec, replayed)
	if last {
		close(sw.doneCh)
	}
}

// discard counts one losing duplicate attempt. Caller holds sw.mu.
func (sw *sweep) discard() {
	sw.c.Discarded++
	sw.f.discarded.Add(1)
}

func (sw *sweep) noteRedispatch(sr *shardRun, host string, err error) {
	sw.mu.Lock()
	sw.c.Redispatched++
	sw.mu.Unlock()
	sw.f.redispatched.Add(1)
	if sp := obs.SpanFrom(sw.ctx); sp != nil {
		sp.Event("fleet.redispatch", obs.Int("shard", sr.shard.Index),
			obs.String("host", host), obs.String("error", err.Error()))
	}
}

// watchdog periodically compares each running attempt's age against the
// median completed-shard latency and steals the slowest shard onto an
// idle healthy node when it falls StragglerFactor behind.
func (sw *sweep) watchdog() {
	opts := sw.f.opts
	t := time.NewTicker(opts.WatchTick)
	defer t.Stop()
	for {
		select {
		case <-sw.ctx.Done():
			return
		case <-sw.doneCh:
			return
		case <-t.C:
		}
		med := sw.medianLatency()
		if med <= 0 {
			continue // nothing completed yet: no baseline to judge by
		}
		cut := time.Duration(opts.StragglerFactor * float64(med))
		if cut < opts.StragglerMin {
			cut = opts.StragglerMin
		}
		now := time.Now()
		for _, sr := range sw.spec.runs {
			if host, ok := sw.stragglerTarget(sr, now, cut); ok {
				sw.mu.Lock()
				sw.c.Stolen++
				sw.mu.Unlock()
				sw.f.stolen.Add(1)
				if sp := obs.SpanFrom(sw.ctx); sp != nil {
					sp.Event("fleet.steal", obs.Int("shard", sr.shard.Index), obs.String("host", host))
				}
				sw.wg.Add(1)
				go func(sr *shardRun, host string) {
					defer sw.wg.Done()
					sw.attempt(sr, host, true)
				}(sr, host)
			}
		}
	}
}

// stragglerTarget decides whether sr's sole running attempt is overdue
// and picks the node to steal it onto: the next host on sr's failover
// route that is healthy, not already running this shard, and has a free
// slot. Each shard is stolen at most once.
func (sw *sweep) stragglerTarget(sr *shardRun, now time.Time, cut time.Duration) (string, bool) {
	sw.mu.Lock()
	done := sr.done
	sw.mu.Unlock()
	if done {
		return "", false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.stole || len(sr.live) != 1 {
		return "", false
	}
	var running liveAttempt
	for _, a := range sr.live {
		running = a
	}
	if now.Sub(running.start) < cut {
		return "", false
	}
	for i := 0; i < len(sr.route); i++ {
		h := sr.route[(sr.cursor+i)%len(sr.route)]
		if h == running.host || sw.f.clients[h].BreakerState() == client.BreakerOpen ||
			!sw.f.routable(h) || len(sw.f.sem[h]) >= cap(sw.f.sem[h]) {
			continue
		}
		sr.stole = true
		return h, true
	}
	return "", false
}

func (sw *sweep) medianLatency() time.Duration {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	n := len(sw.latencies)
	if n == 0 {
		return 0
	}
	s := append([]time.Duration(nil), sw.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[n/2]
}

// sleepCtx waits d and reports false if ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
