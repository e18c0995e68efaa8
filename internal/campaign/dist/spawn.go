package dist

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"time"

	"reorder/internal/obs"
)

// Supervisor keeps a fixed-size fleet of spawned worker processes alive:
// a worker that exits nonzero mid-run is respawned (same argv) while the
// shared restart budget lasts. Combined with the coordinator's lease
// re-issue and the worker's own reconnect loop, this makes -spawn
// self-healing: a crashed process neither loses targets nor duplicates
// them, it only costs the wall time of re-probing its revoked spans.
type Supervisor struct {
	binary string
	args   []string
	stderr io.Writer
	reg    *obs.Campaign

	mu       sync.Mutex
	procs    []*exec.Cmd // current process per slot
	budget   int
	stopping bool
	firstErr error

	exhausted chan struct{}
	exOnce    sync.Once
	wg        sync.WaitGroup
}

// Supervise forks n local worker processes running binary with args (the
// caller builds the argv — cmd/campaign derives its `worker` command line
// from the flags set on `serve`) and restarts crashed ones until budget
// total respawns have been spent. A clean (exit 0) worker is never
// respawned — it drained. Worker stderr is forwarded to stderr; stdout is
// discarded (workers print nothing on success). If a worker fails to
// start, the ones already started are killed. reg, when set, counts
// respawns in the dist telemetry.
func Supervise(n int, binary string, args []string, budget int, stderr io.Writer, reg *obs.Campaign) (*Supervisor, error) {
	s := &Supervisor{
		binary: binary, args: args, stderr: stderr, reg: reg,
		procs: make([]*exec.Cmd, 0, n), budget: budget,
		exhausted: make(chan struct{}),
	}
	for i := 0; i < n; i++ {
		cmd, err := s.start()
		if err != nil {
			for _, c := range s.procs {
				c.Process.Kill()
				c.Wait()
			}
			return nil, fmt.Errorf("dist: spawn worker %d: %w", i, err)
		}
		s.procs = append(s.procs, cmd)
	}
	for i, cmd := range s.procs {
		s.wg.Add(1)
		go s.monitor(i, cmd)
	}
	return s, nil
}

// start starts one worker process.
func (s *Supervisor) start() (*exec.Cmd, error) {
	cmd := exec.Command(s.binary, s.args...)
	cmd.Stderr = s.stderr
	return cmd, cmd.Start()
}

// monitor owns slot i: it reaps the slot's process and respawns on crash
// while the budget lasts and the run isn't stopping.
func (s *Supervisor) monitor(i int, cmd *exec.Cmd) {
	defer s.wg.Done()
	for {
		err := cmd.Wait()
		s.mu.Lock()
		if err == nil || s.stopping {
			// Clean drain, or a death we caused (or no longer care about)
			// during shutdown.
			s.mu.Unlock()
			return
		}
		if s.budget <= 0 {
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("dist: worker slot %d: %w (respawn budget exhausted)", i, err)
			}
			s.mu.Unlock()
			s.exOnce.Do(func() { close(s.exhausted) })
			return
		}
		s.budget--
		next, serr := s.start()
		if serr != nil {
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("dist: respawn worker slot %d: %w", i, serr)
			}
			s.mu.Unlock()
			s.exOnce.Do(func() { close(s.exhausted) })
			return
		}
		s.procs[i] = next
		s.mu.Unlock()
		if d := s.reg.DistObs(); d != nil {
			d.Respawns.Inc()
		}
		fmt.Fprintf(s.stderr, "dist: worker slot %d died (%v) — respawned\n", i, err)
		cmd = next
	}
}

// Exhausted is closed when the respawn budget is spent on a crash (or a
// respawn itself failed): the caller should drain the campaign rather
// than wait for workers that will never come back.
func (s *Supervisor) Exhausted() <-chan struct{} { return s.exhausted }

// Kill forcibly terminates every current worker process.
func (s *Supervisor) Kill() {
	s.mu.Lock()
	procs := append([]*exec.Cmd(nil), s.procs...)
	s.mu.Unlock()
	for _, cmd := range procs {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
}

// Wait marks the run as stopping — from here worker exits are expected,
// never respawned or recorded as failures — and reaps the fleet, giving
// stragglers grace to notice the campaign is over before killing them: a
// respawned worker can be sitting in reconnect backoff against a listener
// that already closed, and nothing else will unstick it. Returns the first
// unexpected failure.
func (s *Supervisor) Wait(grace time.Duration) error {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
		s.Kill()
		<-done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

// Processes returns the current process handles, one per slot — a test
// hook for targeted kills.
func (s *Supervisor) Processes() []*os.Process {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := make([]*os.Process, len(s.procs))
	for i, cmd := range s.procs {
		if cmd != nil {
			ps[i] = cmd.Process
		}
	}
	return ps
}
