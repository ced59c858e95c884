package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fielddb/internal/field"
	"fielddb/internal/geom"
	"fielddb/internal/obs"
)

// buildBatchable builds every row of batchRows over f, each on its own pager,
// keyed by the row's name.
func buildBatchable(t testing.TB, f field.Field) map[string]Engine {
	t.Helper()
	out := map[string]Engine{}
	for _, row := range batchRows(f) {
		e, err := Build(context.Background(), f, newPager(), row.opts)
		if err != nil {
			t.Fatal(err)
		}
		out[row.name] = e
	}
	return out
}

// randomQuerySet draws k intervals exercising the demux edge cases:
// overlapping, disjoint, nested, zero-width, whole-range, and off-range
// (valid but matching nothing).
func randomQuerySet(rng *rand.Rand, vr geom.Interval, k int) []geom.Interval {
	qs := make([]geom.Interval, 0, k)
	for len(qs) < k {
		switch rng.Intn(6) {
		case 0: // selective random band
			lo := vr.Lo + rng.Float64()*vr.Length()
			qs = append(qs, geom.Interval{Lo: lo, Hi: lo + rng.Float64()*vr.Length()*0.1})
		case 1: // wide band — overlaps most others
			lo := vr.Lo + rng.Float64()*vr.Length()*0.3
			qs = append(qs, geom.Interval{Lo: lo, Hi: lo + vr.Length()*0.5})
		case 2: // nested pair
			lo := vr.Lo + rng.Float64()*vr.Length()*0.5
			outer := geom.Interval{Lo: lo, Hi: lo + vr.Length()*0.3}
			inner := geom.Interval{Lo: lo + vr.Length()*0.1, Hi: lo + vr.Length()*0.2}
			qs = append(qs, outer, inner)
		case 3: // zero width (isolines)
			w := vr.Lo + rng.Float64()*vr.Length()
			qs = append(qs, geom.Interval{Lo: w, Hi: w})
		case 4: // whole range
			qs = append(qs, vr)
		case 5: // off the value range: valid, selects nothing
			qs = append(qs, geom.Interval{Lo: vr.Hi + 10, Hi: vr.Hi + 20})
		}
	}
	return qs[:k]
}

// soloResults answers qs one at a time through the solo pipeline.
func soloResults(t *testing.T, idx Engine, qs []geom.Interval) []*Result {
	t.Helper()
	out := make([]*Result, len(qs))
	for i, q := range qs {
		res, err := idx.QueryContext(context.Background(), q)
		if err != nil {
			t.Fatalf("solo query %d %v: %v", i, q, err)
		}
		out[i] = res
	}
	return out
}

// checkBatchStats asserts the two accounting planes reconcile: attributed ==
// Σ member reads, physical + saved == attributed, physical ≤ attributed.
func checkBatchStats(t *testing.T, st BatchStats, results []BatchResult) {
	t.Helper()
	attributed := 0
	for _, r := range results {
		if r.Err == nil {
			attributed += r.Res.IO.Reads
		}
	}
	if st.AttributedReads != attributed {
		t.Fatalf("attributed %d, want Σ member reads %d", st.AttributedReads, attributed)
	}
	if st.Physical.Reads+st.PagesSaved != attributed {
		t.Fatalf("physical %d + saved %d != attributed %d",
			st.Physical.Reads, st.PagesSaved, attributed)
	}
	if st.Physical.Reads > attributed {
		t.Fatalf("physical %d exceeds attributed %d", st.Physical.Reads, attributed)
	}
}

// TestBatchSharesPages asserts the point of batching: a batch of overlapping
// queries reads fewer physical pages than the sum of its members' attributed
// reads, on the shared-scan methods.
func TestBatchSharesPages(t *testing.T) {
	f := testDEM(t, 64, 0.6)
	vr := f.ValueRange()
	lo := vr.Lo + vr.Length()*0.3
	qs := []geom.Interval{
		{Lo: lo, Hi: lo + vr.Length()*0.2},
		{Lo: lo + vr.Length()*0.05, Hi: lo + vr.Length()*0.25},
		{Lo: lo, Hi: lo + vr.Length()*0.2},
		{Lo: lo + vr.Length()*0.1, Hi: lo + vr.Length()*0.3},
	}
	members := make([]BatchQuery, len(qs))
	for i, q := range qs {
		members[i] = BatchQuery{Query: q}
	}
	for name, idx := range buildBatchable(t, f) {
		results, st := idx.QueryBatch(members)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("%s member %d: %v", name, i, r.Err)
			}
		}
		if st.PagesSaved == 0 {
			t.Errorf("%s: overlapping batch saved no pages (physical %d, attributed %d)",
				name, st.Physical.Reads, st.AttributedReads)
		}
	}
}

// TestBatchEmptyAndInvalidMembers checks member-level validation: an empty
// interval fails its member with the solo error text while the rest of the
// batch answers normally, and an empty batch is a no-op.
func TestBatchEmptyAndInvalidMembers(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	vr := f.ValueRange()
	for name, idx := range buildBatchable(t, f) {
		q := geom.Interval{Lo: vr.Lo + vr.Length()*0.4, Hi: vr.Lo + vr.Length()*0.6}
		solo := soloResults(t, idx, []geom.Interval{q})
		results, st := idx.QueryBatch([]BatchQuery{
			{Query: q},
			{Query: geom.Interval{Lo: 5, Hi: 1}}, // empty (inverted) interval
			{Query: q},
		})
		if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "empty query interval") {
			t.Fatalf("%s: empty member error = %v", name, results[1].Err)
		}
		for _, i := range []int{0, 2} {
			if results[i].Err != nil {
				t.Fatalf("%s member %d: %v", name, i, results[i].Err)
			}
			if !reflect.DeepEqual(solo[0], results[i].Res) {
				t.Fatalf("%s member %d diverges from solo next to a failed member", name, i)
			}
		}
		checkBatchStats(t, st, results)
		if res, st := idx.QueryBatch(nil); res != nil || st != (BatchStats{}) {
			t.Fatalf("%s: empty batch returned %v, %+v", name, res, st)
		}
	}
}

// TestBatchMemberCancellation checks isolation: one member canceled
// mid-batch fails with its context's error while every other member's result
// stays byte-identical to solo.
func TestBatchMemberCancellation(t *testing.T) {
	f := testDEM(t, 64, 0.6)
	vr := f.ValueRange()
	for name, idx := range buildBatchable(t, f) {
		t.Run(name, func(t *testing.T) {
			qs := []geom.Interval{
				{Lo: vr.Lo, Hi: vr.Hi},
				{Lo: vr.Lo + vr.Length()*0.2, Hi: vr.Lo + vr.Length()*0.6},
				{Lo: vr.Lo, Hi: vr.Hi},
			}
			solo := soloResults(t, idx, qs)
			for _, polls := range []int64{0, 3} {
				members := []BatchQuery{
					{Query: qs[0]},
					{Ctx: newCountdownCtx(polls), Query: qs[1]},
					{Query: qs[2]},
				}
				results, st := idx.QueryBatch(members)
				if !errors.Is(results[1].Err, context.Canceled) {
					t.Fatalf("polls=%d: canceled member err = %v", polls, results[1].Err)
				}
				for _, i := range []int{0, 2} {
					if results[i].Err != nil {
						t.Fatalf("polls=%d member %d: %v", polls, i, results[i].Err)
					}
					if !reflect.DeepEqual(solo[i], results[i].Res) {
						t.Fatalf("polls=%d: member %d disturbed by sibling cancellation", polls, i)
					}
				}
				// The canceled member's attributed charges stay unpublished,
				// so saved can undercount but never corrupt: physical + saved
				// ≤ attributed-with-cancellation never holds exactly; assert
				// only the reported planes' internal consistency.
				if st.Physical.Reads+st.PagesSaved < st.Physical.Reads {
					t.Fatalf("polls=%d: negative saved", polls)
				}
			}
		})
	}
}

// countdownCtx is a context whose Err trips to context.Canceled after n
// polls — a deterministic mid-pipeline cancellation.
type countdownCtx struct {
	context.Context
	n atomic.Int64
}

func newCountdownCtx(n int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *countdownCtx) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBatchAllCanceled checks the scan aborts early and every member reports
// its context's error when the whole batch is canceled up front.
func TestBatchAllCanceled(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	vr := f.ValueRange()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, idx := range buildBatchable(t, f) {
		results, _ := idx.QueryBatch([]BatchQuery{
			{Ctx: ctx, Query: vr},
			{Ctx: ctx, Query: geom.Interval{Lo: vr.Lo, Hi: vr.Lo + vr.Length()*0.5}},
		})
		for i, r := range results {
			if !errors.Is(r.Err, context.Canceled) {
				t.Fatalf("%s member %d: err = %v, want canceled", name, i, r.Err)
			}
		}
	}
}

// TestBatchConcurrent runs several batches concurrently against one index
// (exercising the pooled scratch under the race detector) and checks every
// member still equals its solo answer.
func TestBatchConcurrent(t *testing.T) {
	f := testDEM(t, 64, 0.6)
	vr := f.ValueRange()
	for name, idx := range buildBatchable(t, f) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(23))
			const goroutines = 4
			sets := make([][]geom.Interval, goroutines)
			solos := make([][]*Result, goroutines)
			for g := range sets {
				sets[g] = randomQuerySet(rng, vr, 6)
				solos[g] = soloResults(t, idx, sets[g])
			}
			var wg sync.WaitGroup
			errs := make([]error, goroutines)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					members := make([]BatchQuery, len(sets[g]))
					for i, q := range sets[g] {
						members[i] = BatchQuery{Query: q}
					}
					results, _ := idx.QueryBatch(members)
					for i := range results {
						if results[i].Err != nil {
							errs[g] = results[i].Err
							return
						}
						if !reflect.DeepEqual(solos[g][i], results[i].Res) {
							errs[g] = errors.New("batched result diverges from solo")
							return
						}
					}
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Fatalf("goroutine %d: %v", g, err)
				}
			}
		})
	}
}

// TestBatcherWindow checks the admission window on a real engine: concurrent
// queries answer exactly as solo however the slot gate grouped them, a lone
// query takes the solo path, a canceled member fails alone without stranding
// its group, and every submission is accounted as a batch member and as
// either a free-slot group or a waiter.
func TestBatcherWindow(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	vr := f.ValueRange()
	ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	b := NewBatcher(ls, 20*time.Millisecond, m)
	qs := randomQuerySet(rand.New(rand.NewSource(41)), vr, 8)
	solo := soloResults(t, ls, qs)
	ls.SetObserver(obs.Observer{Metrics: m})

	// Lone query: the group of one takes the solo path.
	res, err := b.Query(BatchQuery{Ctx: context.Background(), Query: qs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo[0], res) {
		t.Fatal("lone batched query diverges from solo")
	}

	// Concurrent queries, one pre-canceled: correctness regardless of how
	// the scheduler grouped them.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(qs)+1)
	for i, q := range qs {
		wg.Add(1)
		go func(i int, q geom.Interval) {
			defer wg.Done()
			res, err := b.Query(BatchQuery{Ctx: context.Background(), Query: q})
			if err != nil {
				errs[i] = err
				return
			}
			if !reflect.DeepEqual(solo[i], res) {
				errs[i] = errors.New("batched result diverges from solo")
			}
		}(i, q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.Query(BatchQuery{Ctx: canceled, Query: qs[0]}); !errors.Is(err, context.Canceled) {
			errs[len(qs)] = errors.New("canceled member did not fail with context.Canceled")
		}
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	submitted := int64(1 + len(qs) + 1)
	if s := m.Snapshot(); s.BatchQueries != submitted || s.GroupsFreeSlot+s.WindowWaiters != submitted {
		t.Fatalf("%d submissions, counters %+v", submitted, s)
	}
}

// TestBatchAllocs is the scratch-reuse satellite's gate: once the pools are
// warm, a batch's demux machinery adds no allocations beyond what its
// members would have allocated solo plus the shared fetch's own page
// accounting — so a 4-member batch stays within the sum of 4 solo runs.
func TestBatchAllocs(t *testing.T) {
	f := testDEM(t, 32, 0.6)
	vr := f.ValueRange()
	ls, err := buildIx(f, newPager(), BuildOptions{Method: MethodLinearScan})
	if err != nil {
		t.Fatal(err)
	}
	q := geom.Interval{Lo: vr.Lo + vr.Length()*0.4, Hi: vr.Lo + vr.Length()*0.6}
	members := []BatchQuery{{Query: q}, {Query: q}, {Query: q}, {Query: q}}
	runBatch := func() {
		results, _ := ls.QueryBatch(members)
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	runSolo := func() {
		for range members {
			if _, err := ls.QueryContext(context.Background(), q); err != nil {
				t.Fatal(err)
			}
		}
	}
	runBatch() // warm the batch scratch pool
	runSolo()
	soloAllocs := testing.AllocsPerRun(20, runSolo)
	batchAllocs := testing.AllocsPerRun(20, runBatch)
	t.Logf("%.0f allocs per batch of 4, %.0f for 4 solo queries", batchAllocs, soloAllocs)
	// The batch pays everything solo pays (the attributed replay allocates
	// the same per-page accounting) plus a small fixed per-batch overhead —
	// the member table, the result slice. The demux machinery itself
	// (positions, bounds, runs, coverage) and every member's and the shared
	// fetch's context are pooled, so nothing scales with the batch beyond the
	// solo costs (measured: 18 a batch, 13 the four solo queries).
	if batchAllocs > soloAllocs+16 {
		t.Fatalf("batch allocates %v per run, solo total %v (+16 allowance)", batchAllocs, soloAllocs)
	}
}

// gateEngine is the Batcher's engine in the slot-gate tests: QueryBatch
// reports the group's size on entered, then blocks until the test sends it a
// token on gate. A member with a negative Lo makes the batch panic; a member
// whose context has ended fails with its error, as in the real executor.
type gateEngine struct {
	Engine  // nil: the Batcher calls nothing else
	entered chan int
	gate    chan struct{}
}

func newGateEngine() *gateEngine {
	// Buffers sized past the number of QueryBatch calls any test makes, so
	// neither the stub nor a test blocks on the bookkeeping itself.
	return &gateEngine{entered: make(chan int, 64), gate: make(chan struct{}, 64)}
}

func (e *gateEngine) QueryBatch(members []BatchQuery) ([]BatchResult, BatchStats) {
	e.entered <- len(members)
	<-e.gate
	out := make([]BatchResult, len(members))
	for i, m := range members {
		if m.Query.Lo < 0 {
			panic("gateEngine: poisoned member")
		}
		if err := m.Ctx.Err(); err != nil {
			out[i].Err = err
		} else {
			out[i].Res = &Result{Query: m.Query}
		}
	}
	return out, BatchStats{Size: len(members)}
}

// pass lets n blocked QueryBatch calls return.
func (e *gateEngine) pass(n int) {
	for i := 0; i < n; i++ {
		e.gate <- struct{}{}
	}
}

// gateCall is one Batcher.Query call made on its own goroutine.
type gateCall struct {
	res      *Result
	err      error
	panicked any
	done     chan struct{}
}

func submit(b *Batcher, ctx context.Context, lo float64) *gateCall {
	c := &gateCall{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		defer func() { c.panicked = recover() }()
		c.res, c.err = b.Query(BatchQuery{Ctx: ctx, Query: geom.Interval{Lo: lo, Hi: lo + 1}})
	}()
	return c
}

// wait blocks until the call returned (the package's test timeout is the
// only bound a hung Batcher needs).
func (c *gateCall) wait() *gateCall { <-c.done; return c }

// occupy fills every slot of b with a query blocked inside the engine and
// returns those calls.
func occupy(t *testing.T, b *Batcher, e *gateEngine) []*gateCall {
	t.Helper()
	holders := make([]*gateCall, b.slots)
	for i := range holders {
		holders[i] = submit(b, context.Background(), 1000+float64(i))
		if n := <-e.entered; n != 1 {
			t.Fatalf("holder %d entered as a group of %d", i, n)
		}
	}
	return holders
}

// awaitPending spins until the pending group has n members.
func awaitPending(b *Batcher, n int) {
	for {
		b.mu.Lock()
		g := b.pending
		have := 0
		if g != nil {
			have = len(g.members)
		}
		b.mu.Unlock()
		if have == n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// checkIdle asserts that no slot leaked: nothing running, nothing pending,
// and a fresh query runs at once even under an hour-long window.
func checkIdle(t *testing.T, b *Batcher, e *gateEngine) {
	t.Helper()
	b.mu.Lock()
	running, pending := b.running, b.pending
	b.mu.Unlock()
	if running != 0 || pending != nil {
		t.Fatalf("after the drive: running=%d pending=%v", running, pending != nil)
	}
	e.pass(1)
	if c := submit(b, context.Background(), 1).wait(); c.err != nil || c.res == nil {
		t.Fatalf("query on the drained batcher: %+v", c)
	}
	if n := <-e.entered; n != 1 {
		t.Fatalf("query on the drained batcher ran in a group of %d", n)
	}
}

// TestBatcherIdleRunsAtOnce: with a slot free the window costs nothing — an
// hour-long one answers immediately, as a group of one.
func TestBatcherIdleRunsAtOnce(t *testing.T) {
	e, m := newGateEngine(), obs.NewMetrics()
	b := NewBatcher(e, time.Hour, m)
	for i := 0; i < 3; i++ {
		e.pass(1)
		if c := submit(b, context.Background(), float64(i)).wait(); c.err != nil || c.res.Query.Lo != float64(i) {
			t.Fatalf("idle query %d: %+v", i, c)
		}
		if n := <-e.entered; n != 1 {
			t.Fatalf("idle query ran in a group of %d", n)
		}
	}
	if s := m.Snapshot(); s.GroupsFreeSlot != 3 || s.GroupsHandover+s.GroupsExpired+s.WindowWaiters != 0 || s.WindowWaitSum != 0 {
		t.Fatalf("queue counters after idle queries: %+v", s)
	}
	checkIdle(t, b, e)
}

// TestBatcherHandover: arrivals that find every slot busy form one group,
// which fires when a running group finishes — under an hour-long window, so
// not at expiry — at the size of the backlog.
func TestBatcherHandover(t *testing.T) {
	e, m := newGateEngine(), obs.NewMetrics()
	b := NewBatcher(e, time.Hour, m)
	holders := occupy(t, b, e)
	const backlog = 5
	waiters := make([]*gateCall, backlog)
	for i := range waiters {
		waiters[i] = submit(b, context.Background(), float64(i))
		awaitPending(b, i+1) // keeps member order = submission order
	}
	select {
	case n := <-e.entered:
		t.Fatalf("a group of %d started with every slot busy", n)
	default:
	}
	e.pass(1) // one holder finishes and hands its slot over
	if n := <-e.entered; n != backlog {
		t.Fatalf("released group has %d members, want %d", n, backlog)
	}
	e.pass(b.slots) // the group and the remaining holders
	for i, c := range waiters {
		if c.wait(); c.err != nil || c.res.Query.Lo != float64(i) {
			t.Fatalf("waiter %d: %+v", i, c)
		}
	}
	for _, c := range holders {
		c.wait()
	}
	s := m.Snapshot()
	if s.GroupsFreeSlot != int64(b.slots) || s.GroupsHandover != 1 || s.GroupsExpired != 0 || s.WindowWaiters != backlog {
		t.Fatalf("queue counters: %+v", s)
	}
	if s.WindowWaitMax <= 0 || s.WindowWaitSum < s.WindowWaitMax || s.WindowWaitSum > backlog*s.WindowWaitMax {
		t.Fatalf("wait accounting: sum %v max %v over %d waiters", s.WindowWaitSum, s.WindowWaitMax, backlog)
	}
	checkIdle(t, b, e)
}

// TestBatcherExpiry: with no slot ever released the pending group fires when
// the window runs out, over the slot count; the excess drains before slots
// are handed over again.
func TestBatcherExpiry(t *testing.T) {
	e, m := newGateEngine(), obs.NewMetrics()
	b := NewBatcher(e, 30*time.Millisecond, m)
	holders := occupy(t, b, e)
	const backlog = 3
	waiters := make([]*gateCall, backlog)
	for i := range waiters {
		waiters[i] = submit(b, context.Background(), float64(i))
	}
	// However the arrivals split across windows, every one of them starts by
	// expiry alone.
	groups := 0
	for started := 0; started < backlog; groups++ {
		started += <-e.entered
	}
	b.mu.Lock()
	running := b.running
	b.mu.Unlock()
	if running != b.slots+groups {
		t.Fatalf("running=%d with %d slots and %d expired groups", running, b.slots, groups)
	}
	e.pass(b.slots + groups)
	for _, c := range append(waiters, holders...) {
		if c.wait(); c.err != nil {
			t.Fatal(c.err)
		}
	}
	if s := m.Snapshot(); s.GroupsExpired != int64(groups) || s.GroupsHandover != 0 || s.WindowWaiters != backlog ||
		s.WindowWaitMax < 30*time.Millisecond {
		t.Fatalf("queue counters: %+v", s)
	}
	checkIdle(t, b, e)
}

// TestBatcherCancellation: a follower whose context ends returns at once,
// while its group is still waiting; a canceled leader stays, runs the group
// and serves its followers.
func TestBatcherCancellation(t *testing.T) {
	e := newGateEngine()
	b := NewBatcher(e, time.Hour, nil)
	holders := occupy(t, b, e)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader := submit(b, leaderCtx, 0)
	awaitPending(b, 1)
	followerCtx, cancelFollower := context.WithCancel(context.Background())
	quitter := submit(b, followerCtx, 1)
	awaitPending(b, 2)
	stayer := submit(b, context.Background(), 2)
	awaitPending(b, 3)

	cancelFollower()
	if quitter.wait(); !errors.Is(quitter.err, context.Canceled) {
		t.Fatalf("canceled follower: %+v", quitter)
	}
	select {
	case n := <-e.entered:
		t.Fatalf("group of %d started before any slot was released", n)
	default:
	}
	cancelLeader()
	e.pass(1)
	if n := <-e.entered; n != 3 {
		t.Fatalf("group ran with %d members, want 3 (the quitter's member stays in the batch)", n)
	}
	e.pass(b.slots)
	if leader.wait(); !errors.Is(leader.err, context.Canceled) {
		t.Fatalf("canceled leader: %+v", leader)
	}
	if stayer.wait(); stayer.err != nil || stayer.res.Query.Lo != 2 {
		t.Fatalf("follower of a canceled leader: %+v", stayer)
	}
	for _, c := range holders {
		c.wait()
	}
	checkIdle(t, b, e)
}

// TestBatcherPanic: a panic inside the shared scan unwinds through the
// leader's caller, releases every follower with an error and still gives the
// slot back — on the free-slot path too.
func TestBatcherPanic(t *testing.T) {
	e := newGateEngine()
	b := NewBatcher(e, time.Hour, nil)
	e.pass(1)
	if c := submit(b, context.Background(), -1).wait(); c.panicked == nil {
		t.Fatalf("poisoned solo query did not panic: %+v", c)
	}
	<-e.entered

	holders := occupy(t, b, e)
	leader := submit(b, context.Background(), -1)
	awaitPending(b, 1)
	follower := submit(b, context.Background(), 2)
	awaitPending(b, 2)
	e.pass(1)
	if n := <-e.entered; n != 2 {
		t.Fatalf("poisoned group ran with %d members", n)
	}
	e.pass(b.slots)
	if leader.wait(); leader.panicked == nil {
		t.Fatalf("leader of a poisoned group did not panic: %+v", leader)
	}
	if follower.wait(); !errors.Is(follower.err, errBatchAborted) || follower.res != nil {
		t.Fatalf("follower of a panicked leader: %+v", follower)
	}
	for _, c := range holders {
		c.wait()
	}
	checkIdle(t, b, e)
}
