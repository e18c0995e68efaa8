package sim

import (
	"slices"
	"testing"
	"time"
)

// runFrontierProgram runs a random program on a fresh loop and, at every
// point a caller can stand — inside a callback, between Steps, after
// RunUntil to, before or beyond the clock, after Reset — records which of
// the keys marked so far have passed. With eager unset a key is only
// reserved and Passed is asked; with it set an event is scheduled in the
// key's place (taking the same sequence number) and "passed" means it ran.
// Every choice comes from the seed, so both modes see the same program.
func runFrontierProgram(seed uint64, eager bool) [][]bool {
	const grid = time.Millisecond
	type key struct {
		at  Time
		seq uint64
	}
	var (
		l       = NewLoop()
		rng     = NewRand(seed, 1)
		keys    []key
		fired   []bool
		log     [][]bool
		steps   int // filler events run: the clock the two modes share
		pending int // filler events scheduled and not yet run
	)
	snapshot := func() {
		snap := make([]bool, len(fired))
		for i := range snap {
			if eager {
				snap[i] = fired[i]
			} else {
				snap[i] = l.Passed(keys[i].at, keys[i].seq)
			}
		}
		log = append(log, snap)
	}
	// mark places a key on a grid instant near now, so keys tie with filler
	// events scheduled both before and after them.
	mark := func() {
		at := l.Now().Add(time.Duration(rng.IntN(3)) * grid)
		i := len(fired)
		fired = append(fired, false)
		if eager {
			l.At(at, func() { fired[i] = true })
			keys = append(keys, key{})
		} else {
			keys = append(keys, key{at, l.ReserveSeq()})
		}
	}
	var filler func()
	filler = func() {
		steps++
		pending--
		if rng.IntN(2) == 0 {
			mark()
		}
		if rng.IntN(2) == 0 {
			pending++
			l.Schedule(time.Duration(rng.IntN(3))*grid, filler)
		}
		snapshot()
	}
	for phase := 0; phase < 40; phase++ {
		for k := rng.IntN(3); k > 0; k-- {
			if rng.IntN(2) == 0 {
				mark()
			} else {
				// May fall behind the clock, where At clamps it to now.
				pending++
				l.At(l.Now().Add(time.Duration(rng.IntN(4)-1)*grid), filler)
			}
		}
		snapshot()
		switch rng.IntN(5) {
		case 0:
			l.RunUntil(l.Now())
		case 1:
			l.RunUntil(l.Now() - Time(grid))
		case 2:
			l.RunFor(time.Duration(rng.IntN(3)) * grid)
		default:
			// One filler event, if there is one to stop at: the eager loop
			// also runs the markers ordered before it, and leaves those
			// after it — same instant or not.
			for stop := steps + min(pending, 1); steps < stop && l.Step(); {
			}
		}
		snapshot()
		if phase == 25 {
			l.Reset()
			keys, fired, pending = keys[:0], fired[:0], 0
		}
	}
	return log
}

// TestPassedAgreesWithARealEvent checks the frontier against its
// definition: a reserved key has passed exactly when an event scheduled in
// its place would already have run.
func TestPassedAgreesWithARealEvent(t *testing.T) {
	var passed, pending int
	for seed := uint64(1); seed <= 300; seed++ {
		got, want := runFrontierProgram(seed, false), runFrontierProgram(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d snapshots against %d: the modes ran different programs", seed, len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("seed %d snapshot %d:\nPassed       %v\nmarker fired %v", seed, i, got[i], want[i])
			}
			for _, p := range want[i] {
				if p {
					passed++
				} else {
					pending++
				}
			}
		}
	}
	if passed < 1000 || pending < 1000 {
		t.Fatalf("program too one-sided to mean anything: %d passed, %d pending observations", passed, pending)
	}
}

func TestQueue(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			q.Push(next)
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if got := q.Front(); got != want {
				t.Fatalf("Front = %d, want %d", got, want)
			}
			q.Pop()
			want++
		}
	}
	// A queue held near a steady length for ever, like a saturated link's.
	push(40)
	for i := 0; i < 10_000; i++ {
		pop(1 + i%3)
		push(1 + i%3)
		if q.Len() != 40 {
			t.Fatalf("Len = %d, want 40", q.Len())
		}
	}
	if c := cap(q.buf); c > 128 {
		t.Fatalf("storage grew to %d values for a queue of 40", c)
	}
	pop(40)
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
	push(3)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len = %d after Reset", q.Len())
	}
	push(1)
	want = next - 1
	pop(1)
	if avg := testing.AllocsPerRun(100, func() { push(50); pop(50) }); avg != 0 {
		t.Fatalf("steady-state queueing allocates %.1f per run", avg)
	}
}
