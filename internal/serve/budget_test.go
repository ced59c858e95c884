package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"fielddb"
)

// TestServeFieldBudgetStarvation is the isolation property of per-field
// admission, run with enough concurrency to be meaningful under -race: a hot
// field that saturates its budget plus the whole overflow pool sheds 429,
// while a cold field keeps answering from its own reserved tokens with a zero
// error rate. Afterwards every gauge must return to zero and a drain must
// still be zero-drop.
func TestServeFieldBudgetStarvation(t *testing.T) {
	f, err := fielddb.TerrainDEM(32, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fielddb.Open(f, fielddb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	hot := &slowQuerier{
		Querier: db,
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	srv := New(map[string]*Field{
		"hot":  {Querier: hot},
		"cold": {Querier: db},
	}, Config{MaxInFlight: 8, FieldBudget: 2, Overflow: 2, RetryAfter: time.Second})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	get := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	hotURL := hs.URL + "/v1/fields/hot/range?lo=1&hi=2"
	coldURL := hs.URL + "/v1/fields/cold/range?lo=1&hi=2"

	// Saturate the hot field: 2 budget tokens + 2 overflow tokens block in
	// the slow querier, every further hot request must shed instantly.
	const hotTotal = 10
	statuses := make(chan int, hotTotal)
	var wg sync.WaitGroup
	for i := 0; i < hotTotal; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses <- get(hotURL)
		}()
	}
	for i := 0; i < 4; i++ {
		<-hot.entered // the four admitted requests hold their tokens
	}
	sheds := 0
	for i := 0; i < hotTotal-4; i++ {
		if st := <-statuses; st == http.StatusTooManyRequests {
			sheds++
		} else {
			t.Fatalf("hot request beyond capacity answered %d, want 429", st)
		}
	}

	// The overflow pool is fully borrowed, so a cross-field conjunction
	// sheds too.
	if st := postJSON(t, hs.URL+"/v1/and", `{"conditions":[{"field":"cold","lo":1,"hi":2}]}`, nil); st != http.StatusTooManyRequests {
		t.Fatalf("/v1/and under saturation answered %d, want 429", st)
	}

	// The cold field still answers from its own budget: its error rate under
	// hot-field saturation must be exactly zero.
	var coldWG sync.WaitGroup
	coldErrs := make(chan int, 32)
	for w := 0; w < 2; w++ {
		coldWG.Add(1)
		go func() {
			defer coldWG.Done()
			for i := 0; i < 8; i++ {
				if st := get(coldURL); st != http.StatusOK {
					coldErrs <- st
				}
			}
		}()
	}
	coldWG.Wait()
	close(coldErrs)
	for st := range coldErrs {
		t.Fatalf("cold field answered %d during hot saturation, want 200", st)
	}

	// Release the blocked hot requests: they complete with 200 — saturation
	// shed the excess, it never dropped admitted work.
	close(hot.release)
	for i := 0; i < 4; i++ {
		if st := <-statuses; st != http.StatusOK {
			t.Fatalf("admitted hot request answered %d", st)
		}
	}
	wg.Wait()

	// The admission accounting reconciles exactly.
	s := srv.Admission()
	byName := map[string]int{}
	for i, fa := range s.Fields {
		byName[fa.Field] = i
	}
	h := s.Fields[byName["hot"]]
	if h.Admitted != 2 || h.Borrowed != 2 || h.Shed != int64(sheds) || h.BudgetInUse != 0 {
		t.Fatalf("hot accounting = %+v (sheds %d)", h, sheds)
	}
	c := s.Fields[byName["cold"]]
	if c.Admitted != 16 || c.Shed != 0 || c.BudgetInUse != 0 {
		t.Fatalf("cold accounting = %+v", c)
	}
	if s.OverflowInUse != 0 || s.SharedShed != 1 {
		t.Fatalf("overflow accounting = %+v", s)
	}

	// Drain still refuses new work and never drops a response.
	srv.Drain()
	if st := get(coldURL); st != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request answered %d, want 503", st)
	}
	if got := srv.Admission().DrainRefused; got != 1 {
		t.Fatalf("drain refusals = %d", got)
	}
}
