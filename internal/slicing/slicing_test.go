package slicing

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"waran/internal/sched"
)

// flakyScheduler fails its first n calls, then behaves like round-robin.
type flakyScheduler struct {
	failures  int
	calls     int
	misbehave string // "error", "over-budget", "unknown-ue", "refuse"
}

func (f *flakyScheduler) Name() string { return "flaky" }

func (f *flakyScheduler) Schedule(req *sched.Request) (*sched.Response, error) {
	f.calls++
	if f.calls <= f.failures {
		switch f.misbehave {
		case "over-budget":
			return &sched.Response{Allocs: []sched.Allocation{{UEID: req.UEs[0].ID, PRBs: req.PRBBudget + 1}}}, nil
		case "unknown-ue":
			return &sched.Response{Allocs: []sched.Allocation{{UEID: 0xDEAD, PRBs: 1}}}, nil
		case "refuse":
			return nil, fmt.Errorf("breaker open: %w", sched.ErrRefused)
		default:
			return nil, errors.New("synthetic plugin failure")
		}
	}
	return sched.RoundRobin{}.Schedule(req)
}

func testRequest() *sched.Request {
	return &sched.Request{
		PRBBudget: 10,
		UEs: []sched.UEInfo{
			{ID: 1, MCS: 20, BitsPerPRB: 500, BufferBytes: 100_000},
			{ID: 2, MCS: 24, BitsPerPRB: 650, BufferBytes: 100_000},
		},
	}
}

func TestAddSlices(t *testing.T) {
	m := NewManager()
	if _, err := m.AddSlice(1, "a", 1e6, sched.RoundRobin{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddSlice(1, "dup", 1e6, sched.RoundRobin{}, nil); err == nil {
		t.Fatal("duplicate slice accepted")
	}
	if _, err := m.AddSlice(2, "b", 2e6, sched.MaxThroughput{}, nil); err != nil {
		t.Fatal(err)
	}
	slices := m.Slices()
	if len(slices) != 2 || slices[0].ID != 1 || slices[1].ID != 2 {
		t.Fatalf("slices = %v", slices)
	}
}

func TestNilSchedulerRejected(t *testing.T) {
	m := NewManager()
	if _, err := m.AddSlice(1, "a", 0, nil, nil); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	if _, err := m.AddSlice(1, "a", 0, sched.RoundRobin{}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.HotSwap(1, nil); err == nil {
		t.Fatal("nil hot swap accepted")
	}
}

func TestScheduleHappyPath(t *testing.T) {
	m := NewManager()
	s, _ := m.AddSlice(1, "a", 0, sched.RoundRobin{}, nil)
	resp, fellBack, err := m.Schedule(s, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if totalPRBs(resp) != 10 || fellBack {
		t.Fatalf("allocated %d PRBs, fellBack %v", totalPRBs(resp), fellBack)
	}
	if st := s.Stats(); st.TotalFaults != 0 || st.FallbackSlots != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFallbackOnError(t *testing.T) {
	for _, mode := range []string{"error", "over-budget", "unknown-ue"} {
		t.Run(mode, func(t *testing.T) {
			m := NewManager()
			var faults []error
			m.OnFault = func(_ uint32, err error) { faults = append(faults, err) }
			s, _ := m.AddSlice(1, "a", 0, &flakyScheduler{failures: 1, misbehave: mode}, nil)
			resp, fellBack, err := m.Schedule(s, testRequest())
			if err != nil {
				t.Fatalf("fault not absorbed: %v", err)
			}
			// The slot is rescued by the fallback: full budget still granted.
			if totalPRBs(resp) != 10 || !fellBack {
				t.Fatalf("fallback allocated %d PRBs, fellBack %v", totalPRBs(resp), fellBack)
			}
			if len(faults) != 1 {
				t.Fatalf("observed %d faults", len(faults))
			}
			st := s.Stats()
			if st.TotalFaults != 1 || st.FallbackSlots != 1 {
				t.Fatalf("stats = %+v", st)
			}
		})
	}
}

func TestRecoveryResetsConsecutiveCount(t *testing.T) {
	m := NewManager()
	s, _ := m.AddSlice(1, "a", 0, &flakyScheduler{failures: 2}, nil)
	req := testRequest()
	// Two faults, then healthy: the plugin serves again from the third slot.
	for i := 0; i < 5; i++ {
		_, fellBack, err := m.Schedule(s, req)
		if err != nil {
			t.Fatal(err)
		}
		if fellBack != (i < 2) {
			t.Fatalf("slot %d: fellBack %v", i, fellBack)
		}
	}
	if st := s.Stats(); st.TotalFaults != 2 || st.FallbackSlots != 2 {
		t.Fatalf("stats = %+v, want 2 faults / 2 fallback slots", st)
	}
}

// TestPersistentFaultsNeverPinTheSlice: the slice has no give-up rule of its
// own — that is the supervisor's breaker — so a plugin that keeps failing is
// still consulted every slot and every slot is rescued and counted once.
func TestPersistentFaultsNeverPinTheSlice(t *testing.T) {
	m := NewManager()
	flaky := &flakyScheduler{failures: 1000}
	s, _ := m.AddSlice(1, "a", 0, flaky, nil)
	for i := 0; i < 10; i++ {
		resp, _, err := m.Schedule(s, testRequest())
		if err != nil || totalPRBs(resp) != 10 {
			t.Fatalf("slot %d not rescued: %v", i, err)
		}
	}
	if st := s.Stats(); flaky.calls != 10 || st.TotalFaults != 10 || st.FallbackSlots != 10 {
		t.Fatalf("plugin called %d times, stats %+v; want 10 / 10 faults / 10 fallback slots", flaky.calls, st)
	}
	if name := s.SchedulerName(); name != "flaky" {
		t.Fatalf("scheduler name = %q", name)
	}
}

// TestRefusalFallsBackWithoutFault: a scheduler that refuses the slot
// (sched.ErrRefused, a supervisor with an open breaker) is served by the
// fallback and counted as a fallback slot, not as a fault.
func TestRefusalFallsBackWithoutFault(t *testing.T) {
	m := NewManager()
	var faults int
	m.OnFault = func(uint32, error) { faults++ }
	s, _ := m.AddSlice(1, "a", 0, &flakyScheduler{failures: 3, misbehave: "refuse"}, nil)
	for i := 0; i < 5; i++ {
		_, fellBack, err := m.Schedule(s, testRequest())
		if err != nil {
			t.Fatal(err)
		}
		if fellBack != (i < 3) {
			t.Fatalf("slot %d: fellBack %v", i, fellBack)
		}
	}
	if st := s.Stats(); faults != 0 || st.TotalFaults != 0 || st.FallbackSlots != 3 {
		t.Fatalf("%d faults observed, stats %+v; want 0 / 0 faults / 3 fallback slots", faults, st)
	}
}

func TestHotSwapUnknownSlice(t *testing.T) {
	m := NewManager()
	if err := m.HotSwap(7, sched.RoundRobin{}); !errors.Is(err, ErrNoSuchSlice) {
		t.Fatalf("got %v", err)
	}
}

func TestSwapCountTracked(t *testing.T) {
	m := NewManager()
	s, _ := m.AddSlice(1, "a", 0, sched.RoundRobin{}, nil)
	for i := 0; i < 3; i++ {
		if err := m.HotSwap(1, sched.ProportionalFair{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Swaps != 3 {
		t.Fatalf("swaps = %d", st.Swaps)
	}
}

func TestTargetAndWeight(t *testing.T) {
	m := NewManager()
	s, _ := m.AddSlice(1, "a", 5e6, sched.RoundRobin{}, nil)
	s.SetTargetRate(7e6)
	s.SetWeight(2.5)
	if rate, w := s.TargetAndWeight(); rate != s.TargetRate() || w != s.Weight() || rate != 7e6 || w != 2.5 {
		t.Fatalf("TargetAndWeight = %v, %v; want %v, %v", rate, w, s.TargetRate(), s.Weight())
	}
}

// TestConcurrentSwapWhileScheduling is the live-swap race: one goroutine
// schedules every slot while another hot-swaps policies. Run with -race.
func TestConcurrentSwapWhileScheduling(t *testing.T) {
	m := NewManager()
	s, _ := m.AddSlice(1, "a", 0, sched.RoundRobin{}, nil)
	req := testRequest()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		policies := []sched.IntraSlice{sched.RoundRobin{}, sched.MaxThroughput{}, sched.ProportionalFair{}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.HotSwap(1, policies[i%3]); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		resp, _, err := m.Schedule(s, req)
		if err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
		if err := resp.Validate(req); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestFallbackFailureSurfaces(t *testing.T) {
	m := NewManager()
	bad := &flakyScheduler{failures: 1 << 30}
	s, _ := m.AddSlice(1, "a", 0, bad, badFallback{})
	if _, _, err := m.Schedule(s, testRequest()); err == nil {
		t.Fatal("fallback failure swallowed")
	}
}

type badFallback struct{}

func (badFallback) Name() string { return "bad" }
func (badFallback) Schedule(*sched.Request) (*sched.Response, error) {
	return nil, fmt.Errorf("fallback also broken")
}

func TestAdmissionControl(t *testing.T) {
	m := NewManager()
	m.CapacityBps = 30e6
	if _, err := m.AddSlice(1, "a", 20e6, sched.RoundRobin{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddSlice(2, "b", 15e6, sched.RoundRobin{}, nil); !errors.Is(err, ErrAdmissionDenied) {
		t.Fatalf("overcommit accepted: %v", err)
	}
	if _, err := m.AddSlice(2, "b", 10e6, sched.RoundRobin{}, nil); err != nil {
		t.Fatalf("fitting slice refused: %v", err)
	}
}

// totalPRBs sums the granted PRBs.
func totalPRBs(r *sched.Response) uint32 {
	var t uint32
	for _, a := range r.Allocs {
		t += a.PRBs
	}
	return t
}
