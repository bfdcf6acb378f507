package fleet

// Process-level fleet smoke: real ipim-router and ipim-serve binaries,
// one router fronting two workers, a Table II request and a 4-frame
// stream driven through the router with the stream's owning worker
// SIGKILLed mid-stream — the client still receives byte-identical
// frames, and the router's failover counter moves. This is the ci.sh
// fleet smoke slot; the in-process differential gate in fleet_test.go
// is the -race correctness gate.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ipim"
	"ipim/internal/pixel"
	"ipim/internal/serve"
)

// reservePort grabs an ephemeral port and releases it for a child
// process to bind. Mildly racy by nature; fine for a smoke test.
func reservePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// proc is a spawned binary plus the listen address scraped from its
// startup log line.
type proc struct {
	cmd  *exec.Cmd
	addr string
}

var listenRE = regexp.MustCompile(` on (127\.0\.0\.1:\d+)`)

// startProc launches a binary and waits for its "… on HOST:PORT" log
// line, echoing the rest of its stderr through t.Logf.
func startProc(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("%s: %s", filepath.Base(bin), line)
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &proc{cmd: cmd, addr: addr}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s never logged its listen address", bin)
		return nil
	}
}

func waitHTTP(t *testing.T, url string, want func(int, []byte) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if want(resp.StatusCode, body) {
				return
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("%s never reached the wanted state", url)
}

func TestFleetProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real binaries; skipped in -short mode")
	}

	// Build both binaries once into the test's temp dir.
	bindir := t.TempDir()
	var wg sync.WaitGroup
	for _, name := range []string{"ipim-router", "ipim-serve"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command("go", "build", "-o", filepath.Join(bindir, name), "./cmd/"+name)
			cmd.Dir = "../.."
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Errorf("building %s: %v\n%s", name, err, out)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Reserve the worker ports up front so the stream key's owner is
	// known before anything starts: only the owner gets the chaos flag
	// that stalls its first stream (the surviving worker must relay the
	// spliced tail cleanly).
	ports := []int{reservePort(t), reservePort(t)}
	addrs := []string{
		fmt.Sprintf("http://127.0.0.1:%d", ports[0]),
		fmt.Sprintf("http://127.0.0.1:%d", ports[1]),
	}
	ring := NewRing(0)
	ring.Add(addrs[0])
	ring.Add(addrs[1])
	streamKey := "art|GaussianBlur|opt|32x16" // routingKey's shape for the stream below
	owner, _ := ring.Lookup(streamKey)

	router := startProc(t, filepath.Join(bindir, "ipim-router"),
		"-addr", "127.0.0.1:0", "-worker-ttl", "2s", "-sweep", "100ms")
	routerURL := "http://" + router.addr

	var victim *proc
	for i, a := range addrs {
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-config", "tiny", "-workers", "2",
			"-router", routerURL, "-heartbeat", "100ms",
		}
		if a == owner {
			args = append(args, "-chaos-stream-stall", "1")
		}
		p := startProc(t, filepath.Join(bindir, "ipim-serve"), args...)
		if a == owner {
			victim = p
		}
	}
	waitHTTP(t, routerURL+"/metrics", func(status int, body []byte) bool {
		return status == http.StatusOK && bytes.Contains(body, []byte("ipim_router_ready_workers 2"))
	})

	// In-process reference server: determinism makes its bytes the
	// ground truth for the fleet's.
	ref, err := serve.New(serve.Config{Machine: ipim.TinyConfig(), Workers: 2, QueueCap: 16, CacheCap: 8})
	if err != nil {
		t.Fatal(err)
	}
	refTS := httptest.NewServer(ref)
	t.Cleanup(refTS.Close)

	// Table II request through the router.
	frame := pgmFrames(t, 1)
	procURL := "/v1/process?workload=GaussianBlur"
	wantStatus, _, want := post(t, refTS.URL+procURL, frame, nil)
	gotStatus, _, got := post(t, routerURL+procURL, frame, map[string]string{"X-Ipim-Tenant": "smoke"})
	if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
		t.Fatalf("process request: reference=%d fleet=%d: %s", wantStatus, gotStatus, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fleet process response differs from the reference server")
	}

	// The 4-frame stream. The owner stalls after relaying frame 1;
	// killing it mid-stream forces the router to splice frames 2-4 from
	// the survivor.
	streamBody := pgmFrames(t, 4)
	streamURL := "/v1/stream?workload=GaussianBlur"
	wantStatus, _, wantStream := post(t, refTS.URL+streamURL, streamBody, nil)
	if wantStatus != http.StatusOK {
		t.Fatalf("reference stream: status %d: %s", wantStatus, wantStream)
	}

	resp, err := http.Post(routerURL+streamURL, "application/octet-stream", bytes.NewReader(streamBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("fleet stream: status %d: %s", resp.StatusCode, body)
	}
	br := bufio.NewReader(resp.Body)
	first, err := pixel.ReadPGMFrame(br)
	if err != nil {
		t.Fatalf("reading the first streamed frame: %v", err)
	}
	if err := victim.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("killing the stalled owner: %v", err)
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatalf("reading the spliced stream tail: %v", err)
	}
	gotStream := append(first, rest...)
	if !bytes.Equal(gotStream, wantStream) {
		t.Fatalf("stream with a mid-stream worker kill differs from the reference (%d vs %d bytes)",
			len(gotStream), len(wantStream))
	}

	waitHTTP(t, routerURL+"/metrics", func(status int, body []byte) bool {
		if status != http.StatusOK {
			return false
		}
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "ipim_router_failovers_total ") {
				var v float64
				fmt.Sscanf(strings.TrimPrefix(line, "ipim_router_failovers_total "), "%g", &v)
				return v >= 1
			}
		}
		return false
	})
}
