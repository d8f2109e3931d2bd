// Command servesmoke is the end-to-end smoke test scripts/check.sh runs
// against the real binaries: it starts a freshly built spinserve on an
// ephemeral port, requests a small experiment, and diffs the response
// byte-for-byte against what the same build's spinbench -csv prints —
// then re-requests and asserts the cache served it (X-Cache: hit) with
// identical bytes. Last it requests the same experiment at another scale
// whose points are the same sizes: a cache miss that the pool's point memo
// answers (points_reused in /stats), still byte-identical to spinbench.
// It exercises the acceptance criteria of the serve layer over a real TCP
// socket, where httptest suites can't see ldflags stamping or process
// startup.
//
// Usage: servesmoke <spinserve-binary> <spinbench-binary>
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "servesmoke: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("servesmoke: ok")
}

const expID = "fig3b"
const scale = 64

// overlapScale subsamples fig3b to the same two sizes as scale: the first
// and the last.
const overlapScale = 32

func run() error {
	if len(os.Args) != 3 {
		return fmt.Errorf("usage: servesmoke <spinserve-binary> <spinbench-binary>")
	}
	spinserve, spinbench := os.Args[1], os.Args[2]

	// Reference bytes: what the CLI prints for the same requests.
	want, err := reference(spinbench, scale)
	if err != nil {
		return err
	}
	wantOverlap, err := reference(spinbench, overlapScale)
	if err != nil {
		return err
	}

	// Start the server on an ephemeral port; its post-listen stderr line
	// ("spinserve: version V listening on ADDR") is the startup handshake,
	// so no sleep-and-retry polling is needed.
	srv := exec.Command(spinserve, "-addr", "127.0.0.1:0", "-workers", "2")
	stderr, err := srv.StderrPipe()
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return fmt.Errorf("starting spinserve: %v", err)
	}
	defer func() {
		srv.Process.Signal(syscall.SIGTERM)
		srv.Wait()
	}()
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		if i := strings.Index(line, "listening on "); i >= 0 {
			addr = strings.TrimSpace(line[i+len("listening on "):])
			break
		}
	}
	if addr == "" {
		return fmt.Errorf("spinserve never reported its listen address")
	}
	go io.Copy(os.Stderr, stderr) // keep draining so the server never blocks on stderr

	base := "http://" + addr
	first, cache1, err := post(base + "/run?experiment=" + expID + fmt.Sprintf("&scale=%d", scale))
	if err != nil {
		return err
	}
	if cache1 != "miss" {
		return fmt.Errorf("first request X-Cache = %q, want miss", cache1)
	}
	if !bytes.Equal(first, want) {
		return fmt.Errorf("server CSV differs from spinbench -csv:\n--- spinbench ---\n%s--- spinserve ---\n%s", want, first)
	}
	second, cache2, err := post(base + "/run?experiment=" + expID + fmt.Sprintf("&scale=%d", scale))
	if err != nil {
		return err
	}
	if cache2 != "hit" {
		return fmt.Errorf("repeat request X-Cache = %q, want hit", cache2)
	}
	if !bytes.Equal(second, first) {
		return fmt.Errorf("repeat request bytes differ from first")
	}

	overlap, cache3, err := post(base + "/run?experiment=" + expID + fmt.Sprintf("&scale=%d", overlapScale))
	if err != nil {
		return err
	}
	if cache3 != "miss" {
		return fmt.Errorf("scale %d request X-Cache = %q, want miss", overlapScale, cache3)
	}
	if !bytes.Equal(overlap, wantOverlap) {
		return fmt.Errorf("scale %d server CSV differs from spinbench -csv:\n--- spinbench ---\n%s--- spinserve ---\n%s", overlapScale, wantOverlap, overlap)
	}
	var st struct {
		Reused uint64 `json:"points_reused"`
	}
	if err := getJSON(base+"/stats", &st); err != nil {
		return err
	}
	if st.Reused < 2 {
		return fmt.Errorf("/stats points_reused = %d after the scale %d request, want >= 2: its points are the scale %d points", st.Reused, overlapScale, scale)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		return fmt.Errorf("healthz = %d: %s", resp.StatusCode, body)
	}
	return nil
}

// reference returns what spinbench -csv prints for the experiment at scale.
func reference(spinbench string, scale int) ([]byte, error) {
	var out bytes.Buffer
	cli := exec.Command(spinbench, "-exp", expID, "-scale", fmt.Sprint(scale), "-csv")
	cli.Stdout = &out
	cli.Stderr = os.Stderr
	if err := cli.Run(); err != nil {
		return nil, fmt.Errorf("spinbench reference run at scale %d: %v", scale, err)
	}
	return out.Bytes(), nil
}

// getJSON issues a GET and decodes its 200 answer into v.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// post issues POST /run and returns (body, X-Cache header).
func post(url string) ([]byte, string, error) {
	resp, err := http.Post(url, "", nil)
	if err != nil {
		return nil, "", fmt.Errorf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST %s = %d: %s", url, resp.StatusCode, body)
	}
	return body, resp.Header.Get("X-Cache"), nil
}
