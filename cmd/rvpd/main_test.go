package main

import (
	"bytes"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestHeaderTrickleClosed boots rvpd with a short -body-read-timeout and
// sends a request whose headers arrive one byte at a time and never
// end. The daemon must close the connection once the headers are
// overdue instead of holding it open.
func TestHeaderTrickleClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short mode")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "rvpd")
	if out, err := exec.Command("go", "build", "-o", bin, "rvpsim/cmd/rvpd").CombinedOutput(); err != nil {
		t.Fatalf("building rvpd: %v\n%s", err, out)
	}
	addrFile := filepath.Join(tmp, "addr")
	var logs bytes.Buffer
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-state", filepath.Join(tmp, "state"), "-workers", "1", "-body-read-timeout", "300ms")
	cmd.Stdout, cmd.Stderr = &logs, &logs
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	var addr string
	for deadline := time.Now().Add(30 * time.Second); addr == ""; {
		if raw, err := os.ReadFile(addrFile); err == nil && len(raw) > 0 {
			addr = strings.TrimSpace(string(raw))
		} else if time.Now().After(deadline) {
			t.Fatalf("rvpd never wrote its address; logs:\n%s", logs.String())
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	go func() {
		conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: rvpd\r\n"))
		for {
			time.Sleep(50 * time.Millisecond)
			if _, err := conn.Write([]byte("X")); err != nil {
				return
			}
		}
	}()
	// The daemon may answer 400 before it closes; only the close counts.
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("connection still open after %v", time.Since(start).Round(time.Millisecond))
		}
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Fatalf("connection closed only after %v", took.Round(time.Millisecond))
	}
}
