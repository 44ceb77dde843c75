package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The "block" app records its PID and rendezvous directory in the
// directory its payload names, then never returns.
func init() {
	RegisterApp("block", func(index, _ int, _ Fabric, payload []byte) (any, error) {
		var notes string
		if err := json.Unmarshal(payload, &notes); err != nil {
			return nil, err
		}
		note := fmt.Sprintf("%d %s", os.Getpid(), os.Getenv(envDir))
		if err := os.WriteFile(filepath.Join(notes, fmt.Sprint(index)), []byte(note), 0o644); err != nil {
			return nil, err
		}
		time.Sleep(time.Hour)
		return nil, nil
	})
}

// TestRunDeadline: a run whose workers never answer ends at the
// deadline with errDeadline naming both workers, and leaves nothing
// behind — no worker process, no rendezvous directory, no ring file.
func TestRunDeadline(t *testing.T) {
	defer func(d time.Duration) { runDeadline = d }(runDeadline)
	runDeadline = 3 * time.Second
	for _, netKind := range []string{"unix", "shm"} {
		t.Run(netKind, func(t *testing.T) {
			notes := t.TempDir()
			start := time.Now()
			_, err := Run(ProcSpec{App: "block", Workers: 2, Net: netKind, Payload: notes})
			if elapsed := time.Since(start); elapsed > runDeadline+5*time.Second {
				t.Errorf("Run returned after %v, deadline %v", elapsed, runDeadline)
			}
			if !errors.Is(err, errDeadline) || !strings.Contains(err.Error(), "workers [0 1]") {
				t.Fatalf("Run returned %v, want errDeadline naming workers [0 1]", err)
			}
			for w := 0; w < 2; w++ {
				data, err := os.ReadFile(filepath.Join(notes, fmt.Sprint(w)))
				if err != nil {
					t.Fatalf("worker %d never reached the app: %v", w, err)
				}
				var pid int
				var dir string
				if _, err := fmt.Sscan(string(data), &pid, &dir); err != nil {
					t.Fatalf("worker %d note %q: %v", w, data, err)
				}
				if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
					t.Errorf("worker %d (pid %d) outlived Run: kill 0 returned %v", w, pid, err)
				}
				if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
					t.Errorf("rendezvous directory %s left behind: %v", dir, err)
				}
			}
		})
	}
}
