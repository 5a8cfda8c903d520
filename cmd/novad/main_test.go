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
	"testing"
	"time"

	"repro/internal/mip"
	"repro/internal/nova"
	"repro/internal/workloads"
)

// runAsNovad makes the test binary act as novad when re-executed by
// TestDaemonServesNAT, so the test drives the real main: flag parsing,
// the printed listen address and the SIGTERM drain.
const runAsNovad = "NOVAD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsNovad) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDaemonServesNAT starts novad on an ephemeral port, compiles the
// NAT workload over HTTP twice and checks that the first request is a
// cold miss and the replay a cache hit, both with assembly
// byte-identical to an in-process novac compile; then SIGTERM must
// drain the daemon to exit status 0.
func TestDaemonServesNAT(t *testing.T) {
	if testing.Short() {
		t.Skip("two full compiles of the NAT workload")
	}
	// Reference: the exact artifact novac would print for nat.nova.
	opts := nova.DefaultOptions()
	opts.Workers = 1
	opts.MIP = &mip.Options{Time: 4 * time.Minute}
	comp, err := nova.Compile("nat.nova", workloads.NATSource, opts)
	if err != nil {
		t.Fatalf("reference compile: %v", err)
	}
	want := comp.Asm.String()

	daemon := exec.Command(os.Args[0], "-addr", "127.0.0.1:0", "-j", "1")
	daemon.Env = append(os.Environ(), runAsNovad+"=1")
	daemon.Stderr = os.Stderr
	stdout, err := daemon.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatalf("start novad: %v", err)
	}
	defer daemon.Process.Kill() // a no-op once the drain below has run

	// The daemon prints "novad: listening on <addr>" once bound.
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "novad: listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		t.Fatal("daemon never reported its address")
	}

	post := func() (asm, outcome string, err error) {
		body, _ := json.Marshal(map[string]any{
			"name":    "nat.nova",
			"source":  workloads.NATSource,
			"workers": 1,
		})
		resp, err := http.Post("http://"+addr+"/compile", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", "", err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			return "", "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
		}
		var cr struct {
			Asm     string `json:"asm"`
			Outcome string `json:"outcome"`
		}
		err = json.NewDecoder(resp.Body).Decode(&cr)
		return cr.Asm, cr.Outcome, err
	}

	asm, outcome, err := post()
	if err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	if outcome != "miss" {
		t.Fatalf("cold outcome %q, want miss", outcome)
	}
	if asm != want {
		t.Fatalf("daemon asm differs from novac output (%d vs %d bytes)", len(asm), len(want))
	}
	asm, outcome, err = post()
	if err != nil {
		t.Fatalf("replay compile: %v", err)
	}
	if outcome != "source_hit" && outcome != "hit" {
		t.Fatalf("replay outcome %q, want a cache hit", outcome)
	}
	if asm != want {
		t.Fatalf("cached asm differs from novac output (%d vs %d bytes)", len(asm), len(want))
	}

	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("novad after SIGTERM: %v", err)
	}
}
