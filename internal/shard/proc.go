package shard

// Process orchestration: Run re-executes the current binary once per
// worker with MIGFLOW_SHARD_* env vars; each worker listens (unix
// socket in a shared temp dir, or loopback TCP), prints "ADDR <addr>"
// on stdout, and waits for the parent to broadcast "ADDRS <a0> <a1>
// ..." on stdin. The mesh is then built deterministically — worker i
// dials every lower-indexed worker and sends a 4-byte LE index hello;
// it accepts one connection from every higher-indexed worker. The
// registered app runs and the worker prints "RESULT <json>" (or
// "ERROR <msg>"); any other stdout line is forwarded to the parent's
// stderr. A worker that dies is a hard error for the whole run. On
// Linux a worker also dies with the process that started it.
//
// The "shm" fabric skips the socket mesh entirely: the parent
// pre-creates the full ring directory (comm.CreateShmMesh) in the
// shared temp dir before spawning anyone, each worker prints a
// placeholder "ADDR shm" to keep the rendezvous protocol uniform, and
// opens the rings by path. Ring creation can fail (non-unix platform,
// tmpfs quota); the parent then falls back to "unix" for the WHOLE
// run — the fabric choice must be uniform, since a mixed mesh would
// leave two workers waiting on fabrics the other never joins.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"migflow/internal/comm"
)

// Environment protocol between Run and WorkerMain.
const (
	envRole    = "MIGFLOW_SHARD_ROLE"
	envIndex   = "MIGFLOW_SHARD_INDEX"
	envWorkers = "MIGFLOW_SHARD_WORKERS"
	envNet     = "MIGFLOW_SHARD_NET"
	envDir     = "MIGFLOW_SHARD_DIR"
	envApp     = "MIGFLOW_SHARD_APP"
	envCfg     = "MIGFLOW_SHARD_CFG"
)

// meshDialTimeout bounds how long a worker keeps retrying a peer dial
// during mesh construction. Listeners are all up before ADDRS is
// broadcast, so failures here are transient OS-level conditions; a
// generous deadline keeps loaded CI machines from failing whole runs.
const meshDialTimeout = 30 * time.Second

// Fabric is the physical substrate a worker joined at rendezvous:
// a socket mesh (Conns holds one connection per peer) or a
// shared-memory ring directory (Dir) for co-located workers. Net is
// "unix", "tcp", or "shm" and tells the worker which half is live.
type Fabric struct {
	Net   string
	Dir   string           // shm only: directory holding the ring files
	Conns map[int]net.Conn // socket fabrics only: one conn per peer
}

// App is a worker-side entry point: run this process's share given
// the fabric and the spec payload; the returned value is marshaled as
// the worker's RESULT.
type App func(index, workers int, fab Fabric, payload []byte) (any, error)

var apps = map[string]App{}

// RegisterApp names a worker entry point WorkerMain can dispatch to.
func RegisterApp(name string, fn App) { apps[name] = fn }

// ProcSpec describes a multi-process run.
type ProcSpec struct {
	App     string
	Workers int
	Net     string // "unix" (default), "tcp", or "shm"
	Payload any    // marshaled to JSON and handed to every worker
}

// Run spawns spec.Workers copies of the current executable, wires
// their rendezvous, and returns each worker's raw RESULT payload in
// index order. Any worker error fails the whole run, and so does
// runDeadline, with errDeadline. However Run ends, every worker is
// killed and waited for and the rendezvous directory removed.
func Run(spec ProcSpec) ([]json.RawMessage, error) {
	if spec.Workers < 2 {
		return nil, fmt.Errorf("shard: need at least 2 workers, got %d", spec.Workers)
	}
	netKind := spec.Net
	if netKind == "" {
		netKind = "unix"
	}
	if netKind != "unix" && netKind != "tcp" && netKind != "shm" {
		return nil, fmt.Errorf("shard: unknown net %q (want unix, tcp, or shm)", netKind)
	}
	if _, ok := apps[spec.App]; !ok {
		return nil, fmt.Errorf("shard: app %q not registered in this binary", spec.App)
	}
	payload, err := json.Marshal(spec.Payload)
	if err != nil {
		return nil, fmt.Errorf("shard: marshaling payload: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// Rendezvous artifacts (socket files, ring files) live on tmpfs
	// when the platform has one: shm ring mappings on a disk-backed
	// filesystem pay writeback page faults on every publish.
	dir, err := os.MkdirTemp(comm.ShmDir(), "migflow-shard-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// The shm fabric needs the full ring mesh on disk before any
	// worker starts; if the platform can't provide it, the whole run
	// falls back to unix sockets (a mixed-fabric mesh would deadlock).
	if netKind == "shm" {
		if err := comm.CreateShmMesh(dir, spec.Workers, 0); err != nil {
			fmt.Fprintf(os.Stderr, "shard: shm mesh unavailable (%v), falling back to unix sockets\n", err)
			netKind = "unix"
		}
	}

	type wproc struct {
		cmd *exec.Cmd
		out *bufio.Reader
		in  io.WriteCloser
	}
	procs := make([]*wproc, spec.Workers)
	results := make([]json.RawMessage, spec.Workers)
	var expired atomic.Bool
	// fail kills every worker (a no-op once one exited) and waits for
	// it; past the deadline the error is errDeadline.
	fail := func(format string, a ...any) ([]json.RawMessage, error) {
		for _, wp := range procs {
			if wp != nil {
				wp.cmd.Process.Kill()
				wp.cmd.Wait()
			}
		}
		if expired.Load() {
			var silent []int
			for i, r := range results {
				if r == nil {
					silent = append(silent, i)
				}
			}
			return nil, fmt.Errorf("%w of %v passed: no RESULT from workers %v", errDeadline, runDeadline, silent)
		}
		return nil, fmt.Errorf(format, a...)
	}
	for i := range procs {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			envRole+"=worker",
			fmt.Sprintf("%s=%d", envIndex, i),
			fmt.Sprintf("%s=%d", envWorkers, spec.Workers),
			envNet+"="+netKind,
			envDir+"="+dir,
			envApp+"="+spec.App,
			envCfg+"="+string(payload),
		)
		cmd.Stderr = os.Stderr
		cmd.SysProcAttr = workerAttr()
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return fail("shard: worker %d stdin: %w", i, err)
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fail("shard: worker %d stdout: %w", i, err)
		}
		if err := cmd.Start(); err != nil {
			return fail("shard: starting worker %d: %w", i, err)
		}
		procs[i] = &wproc{cmd: cmd, out: bufio.NewReaderSize(stdout, 1<<20), in: stdin}
	}
	// Past the deadline every worker is killed, so whatever read or
	// wait this goroutine is blocked in returns and fails the run.
	deadline := time.AfterFunc(runDeadline, func() {
		expired.Store(true)
		for _, wp := range procs {
			wp.cmd.Process.Kill()
		}
	})
	defer deadline.Stop()

	// Rendezvous: collect each worker's listen address, broadcast all.
	addrs := make([]string, spec.Workers)
	for i, wp := range procs {
		line, err := wp.out.ReadString('\n')
		if err != nil {
			return fail("shard: worker %d died before rendezvous: %v", i, err)
		}
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ADDR ")
		if !ok {
			return fail("shard: worker %d: expected ADDR line, got %q", i, line)
		}
		addrs[i] = addr
	}
	all := "ADDRS " + strings.Join(addrs, " ") + "\n"
	for i, wp := range procs {
		if _, err := io.WriteString(wp.in, all); err != nil {
			return fail("shard: sending ADDRS to worker %d: %v", i, err)
		}
		wp.in.Close()
	}

	// Collect results. Non-protocol stdout lines pass through.
	for i, wp := range procs {
		for results[i] == nil {
			line, err := wp.out.ReadString('\n')
			switch {
			case strings.HasPrefix(line, "RESULT "):
				results[i] = json.RawMessage(strings.TrimSpace(line[len("RESULT "):]))
			case strings.HasPrefix(line, "ERROR "):
				return fail("shard: worker %d: %s", i, strings.TrimSpace(line[len("ERROR "):]))
			case err != nil:
				return fail("shard: worker %d exited without a result: %v", i, err)
			default:
				fmt.Fprintf(os.Stderr, "[shard worker %d] %s", i, line)
			}
		}
	}
	for i, wp := range procs {
		if err := wp.cmd.Wait(); err != nil {
			return fail("shard: worker %d: %v", i, err)
		}
	}
	return results, nil
}

// errDeadline is a Run that outlived runDeadline.
var errDeadline = errors.New("shard: run deadline")

// runDeadline bounds a whole Run, from the last worker's start to its
// exit: far beyond any run the tests and the benchmark make, so only a
// hung worker meets it. A variable only so a test can shorten it; Run
// takes no option for it.
var runDeadline = 5 * time.Minute

// WorkerMain is the worker-process entry point. Call it first thing
// in main (and in TestMain): it returns false immediately in ordinary
// processes, and in a process spawned by Run it performs the
// rendezvous, runs the app, prints the result, and exits.
func WorkerMain() bool {
	if os.Getenv(envRole) != "worker" {
		return false
	}
	index, err1 := strconv.Atoi(os.Getenv(envIndex))
	workers, err2 := strconv.Atoi(os.Getenv(envWorkers))
	if err1 != nil || err2 != nil || index < 0 || index >= workers {
		workerFail(fmt.Errorf("bad index/workers env: %q/%q", os.Getenv(envIndex), os.Getenv(envWorkers)))
	}
	app, ok := apps[os.Getenv(envApp)]
	if !ok {
		workerFail(fmt.Errorf("app %q not registered", os.Getenv(envApp)))
	}
	netKind := os.Getenv(envNet)

	// The shm fabric has no listeners: the parent pre-created the ring
	// files, so the ADDR/ADDRS exchange is a pure liveness handshake
	// (every ring is mapped only after all workers exist).
	var l net.Listener
	var addr string
	switch netKind {
	case "shm":
		addr = "shm"
	case "unix":
		addr = filepath.Join(os.Getenv(envDir), fmt.Sprintf("w%d.sock", index))
		l, err1 = net.Listen("unix", addr)
	default:
		l, err1 = net.Listen("tcp", "127.0.0.1:0")
		if err1 == nil {
			addr = l.Addr().String()
		}
	}
	if err1 != nil {
		workerFail(fmt.Errorf("listen: %w", err1))
	}
	fmt.Printf("ADDR %s\n", addr)

	line, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil {
		workerFail(fmt.Errorf("reading ADDRS: %w", err))
	}
	fields := strings.Fields(line)
	if len(fields) != workers+1 || fields[0] != "ADDRS" {
		workerFail(fmt.Errorf("bad ADDRS line %q", line))
	}
	fab := Fabric{Net: netKind, Dir: os.Getenv(envDir)}
	if netKind != "shm" {
		fab.Conns, err = Mesh(index, workers, netKind, fields[1:], l)
		if err != nil {
			workerFail(fmt.Errorf("mesh: %w", err))
		}
		l.Close()
	}

	out, err := app(index, workers, fab, []byte(os.Getenv(envCfg)))
	if err != nil {
		workerFail(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		workerFail(fmt.Errorf("marshaling result: %w", err))
	}
	fmt.Printf("RESULT %s\n", b)
	os.Exit(0)
	return true
}

func workerFail(err error) {
	fmt.Printf("ERROR %v\n", err)
	os.Exit(1)
}

// Mesh builds the full worker mesh from listen addresses: dial every
// lower index (sending our index as a 4-byte LE hello), accept one
// connection from every higher index (reading theirs).
func Mesh(index, workers int, netKind string, addrs []string, l net.Listener) (map[int]net.Conn, error) {
	conns := make(map[int]net.Conn, workers-1)
	type accepted struct {
		idx int
		c   net.Conn
		err error
	}
	need := workers - 1 - index
	acc := make(chan accepted, need)
	go func() {
		for k := 0; k < need; k++ {
			c, err := l.Accept()
			if err != nil {
				acc <- accepted{err: err}
				return
			}
			var hello [4]byte
			if _, err := io.ReadFull(c, hello[:]); err != nil {
				acc <- accepted{err: err}
				return
			}
			acc <- accepted{idx: int(binary.LittleEndian.Uint32(hello[:])), c: c}
		}
	}()
	for j := 0; j < index; j++ {
		var c net.Conn
		var err error
		// Deadline-based retry rather than a fixed attempt count: every
		// peer was listening before ADDRS was broadcast, so a refused
		// dial only means the OS is slow under load (full backlog, CI
		// contention) — worth waiting out well past the happy path.
		deadline := time.Now().Add(meshDialTimeout)
		for {
			c, err = net.Dial(netKind, addrs[j])
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			return nil, fmt.Errorf("dialing worker %d at %s: %w", j, addrs[j], err)
		}
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], uint32(index))
		if _, err := c.Write(hello[:]); err != nil {
			return nil, err
		}
		conns[j] = c
	}
	for k := 0; k < need; k++ {
		a := <-acc
		if a.err != nil {
			return nil, a.err
		}
		if _, dup := conns[a.idx]; dup || a.idx <= index || a.idx >= workers {
			return nil, fmt.Errorf("bad hello index %d", a.idx)
		}
		conns[a.idx] = a.c
	}
	return conns, nil
}
