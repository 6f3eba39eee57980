package appkit

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"cbreak/internal/locks"
)

func TestStatusStrings(t *testing.T) {
	cases := map[Status]string{
		OK: "ok", Exception: "exception", Stall: "stall", TestFail: "test fail",
		Crash: "crash", LogCorrupt: "log corruption", LogOmission: "log omission",
		LogDisorder: "log disorder", Status(99): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
	if OK.Buggy() {
		t.Error("OK must not be buggy")
	}
	for _, s := range []Status{Exception, Stall, TestFail, Crash, LogCorrupt, LogOmission, LogDisorder} {
		if !s.Buggy() {
			t.Errorf("%v should be buggy", s)
		}
	}
}

func TestRunWithDeadlineCompletes(t *testing.T) {
	r := RunWithDeadline(time.Second, func() Result {
		return Result{Status: OK}
	})
	if r.Status != OK || r.Elapsed <= 0 {
		t.Fatalf("result = %+v", r)
	}
}

func TestRunWithDeadlineStall(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	r := RunWithDeadline(30*time.Millisecond, func() Result {
		<-block
		return Result{Status: OK}
	})
	if r.Status != Stall {
		t.Fatalf("status = %v, want stall", r.Status)
	}
	if r.Elapsed < 25*time.Millisecond {
		t.Fatalf("stall elapsed = %v", r.Elapsed)
	}
}

func TestRunWithDeadlinePanic(t *testing.T) {
	r := RunWithDeadline(time.Second, func() Result {
		panic("index out of range")
	})
	if r.Status != Exception || !strings.Contains(r.Detail, "index out of range") {
		t.Fatalf("result = %+v", r)
	}
}

func TestCapture(t *testing.T) {
	r := Capture(func() Result { return Result{Status: TestFail, Detail: "sum"} })
	if r.Status != TestFail {
		t.Fatalf("result = %+v", r)
	}
	r = Capture(func() Result { panic("boom") })
	if r.Status != Exception || r.Detail != "boom" {
		t.Fatalf("result = %+v", r)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Status: OK, Elapsed: time.Second}
	if !strings.Contains(r.String(), "ok") {
		t.Fatalf("String = %q", r.String())
	}
	r = Result{Status: Stall, Detail: "x", Elapsed: time.Second, BPHit: true}
	if !strings.Contains(r.String(), "stall: x") || !strings.Contains(r.String(), "bp=true") {
		t.Fatalf("String = %q", r.String())
	}
}

func TestStatusJSONRoundTrip(t *testing.T) {
	for s := OK; s <= WorkerCrash; s++ {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var got Status
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if got != s {
			t.Fatalf("round trip %v -> %s -> %v", s, data, got)
		}
	}
	var bad Status
	if err := json.Unmarshal([]byte(`"not a status"`), &bad); err == nil {
		t.Fatal("unknown label should fail to unmarshal")
	}
}

func TestStatusClassification(t *testing.T) {
	for s := OK; s <= WorkerCrash; s++ {
		infra := s == TrialTimeout || s == WorkerCrash
		if s.Infrastructure() != infra {
			t.Fatalf("%v Infrastructure() = %v", s, s.Infrastructure())
		}
		buggy := s != OK && !infra
		if s.Buggy() != buggy {
			t.Fatalf("%v Buggy() = %v", s, s.Buggy())
		}
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	want := Result{Status: Stall, Detail: "lost wakeup", Elapsed: 1500 * time.Millisecond, BPHit: true}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	// The wire format is the greppable flat object the checkpoint
	// journal stores.
	for _, frag := range []string{`"status":"stall"`, `"detail":"lost wakeup"`, `"elapsed_ns":1500000000`, `"bp_hit":true`} {
		if !strings.Contains(string(data), frag) {
			t.Fatalf("wire form %s missing %s", data, frag)
		}
	}
	var got Result
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

func TestSeededJitterIsDeterministic(t *testing.T) {
	draw := func(seed int64) []time.Duration {
		SeedJitter(seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = JitterDuration(time.Second)
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded stream diverged at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= time.Second {
			t.Fatalf("jitter %v outside [0, 1s)", a[i])
		}
	}
	c := draw(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter streams")
	}
	if JitterDuration(0) != 0 || JitterDuration(-time.Second) != 0 {
		t.Fatal("non-positive scale should yield zero jitter")
	}
}

func TestAwaitWakeupDelivered(t *testing.T) {
	mu := locks.NewMutex("appkit.await.mu")
	c := locks.NewCond("appkit.await.delivered", mu)
	woken, notified := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(woken)
		mu.Lock()
		c.Wait()
		mu.Unlock()
	}()
	go func() {
		defer close(notified)
		for c.Waiters() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		mu.Lock()
		c.Notify()
		mu.Unlock()
	}()
	if res, ok := AwaitWakeup(c, notified, woken); !ok {
		t.Fatalf("a delivered notify was called a stall: %s", res)
	}
}

func TestAwaitWakeupStrandedWaiter(t *testing.T) {
	mu := locks.NewMutex("appkit.await.mu")
	c := locks.NewCond("appkit.await.stranded", mu)
	woken, notified := make(chan struct{}), make(chan struct{})
	// The only notify fires before anyone waits: lost.
	c.Notify()
	close(notified)
	go func() {
		defer close(woken)
		// Reach the wait late, after the notifier is gone.
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		c.Wait()
		mu.Unlock()
	}()
	res, ok := AwaitWakeup(c, notified, woken)
	if ok || res.Status != Stall {
		t.Fatalf("stranded waiter not reported: ok=%v %s", ok, res)
	}
	if !strings.Contains(res.Detail, `"appkit.await.stranded"`) {
		t.Fatalf("detail does not name the cond: %q", res.Detail)
	}
	// Release the stranded waiter so the test leaks nothing.
	mu.Lock()
	c.Notify()
	mu.Unlock()
	<-woken
}
