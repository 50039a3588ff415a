// The serve-smoke gate (`make serve-smoke`): build the real dgsimd binary,
// start it on a free port, submit a small sweep and stream its results,
// cancel a second long-running job, then SIGTERM the process and assert a
// graceful drain (exit code 0 after the drain log line).
package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// waitStatus polls the job status endpoint until pred holds.
func waitStatus(t *testing.T, base, id string, pred func(state string) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]any
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if s, _ := st["state"].(string); pred(s) {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the wanted state", id)
	return nil
}

func TestServeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}

	bin := filepath.Join(t.TempDir(), "dgsimd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-queue", "8")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}()

	// Handshake: parse the resolved listen address off the first log line,
	// and keep collecting stderr for the drain assertions.
	logC := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logC <- sc.Text()
		}
		close(logC)
	}()
	var base string
	select {
	case line := <-logC:
		i := strings.Index(line, "listening on ")
		if i < 0 {
			t.Fatalf("first log line is not the listen handshake: %q", line)
		}
		base = "http://" + strings.TrimSpace(line[i+len("listening on "):])
	case <-time.After(30 * time.Second):
		t.Fatal("dgsimd never printed its listen address")
	}

	// 1. Submit a small sweep and stream its per-cell results to the end.
	resp, err := http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"version":1,"name":"smoke","sweep":{"base":{"n":13},"seeds":[1,2,3],"trials":50}}`))
	if err != nil {
		t.Fatal(err)
	}
	var small struct {
		ID    string `json:"id"`
		Cells int    `json:"cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&small); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || small.Cells != 3 {
		t.Fatalf("submit: status %d, %+v", resp.StatusCode, small)
	}

	stream, err := http.Get(base + "/v1/jobs/" + small.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	var cellLines, doneState = 0, ""
	sc := bufio.NewScanner(stream.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		if d, _ := line["done"].(bool); d {
			doneState, _ = line["state"].(string)
			break
		}
		if _, ok := line["summary"].(string); !ok {
			t.Fatalf("cell line without summary: %q", sc.Text())
		}
		cellLines++
	}
	stream.Body.Close()
	if cellLines != 3 || doneState != "done" {
		t.Fatalf("streamed %d cells, done state %q", cellLines, doneState)
	}

	// 2. Submit a long job, cancel it mid-run, and confirm it terminates.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"victim","sweep":{"base":{"n":17},"seeds":[1,2,3,4],"trials":400000}}`))
	if err != nil {
		t.Fatal(err)
	}
	var victim struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&victim); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitStatus(t, base, victim.ID, func(s string) bool { return s == "running" })

	req, _ := http.NewRequest("DELETE", base+"/v1/jobs/"+victim.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	st := waitStatus(t, base, victim.ID, func(s string) bool {
		return s == "cancelled" || s == "done" || s == "failed"
	})
	if s, _ := st["state"].(string); s != "cancelled" {
		t.Fatalf("cancelled job ended %q", s)
	}

	// 3. Start another long job so the drain has something to interrupt,
	// then SIGTERM and assert a graceful exit.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"name":"drained","sweep":{"base":{"n":17},"seeds":[5,6,7,8],"trials":400000}}`))
	if err != nil {
		t.Fatal(err)
	}
	var drained struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&drained); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitStatus(t, base, drained.ID, func(s string) bool { return s == "running" })

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Read stderr to EOF before Wait: Wait closes the pipe once the process
	// exits, which can drop the last log lines still unread.
	var sawDrained bool
	stderrDone := make(chan struct{})
	go func() {
		defer close(stderrDone)
		for line := range logC {
			if strings.Contains(line, "drained, exiting") {
				sawDrained = true
			}
		}
	}()
	select {
	case <-stderrDone:
	case <-time.After(90 * time.Second):
		t.Fatal("dgsimd did not exit within the drain window")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("dgsimd exited non-zero after SIGTERM: %v", err)
	}
	if !sawDrained {
		t.Fatal("dgsimd exited without the drain log line")
	}
}
