//go:build unix

package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestLoadRefusesFIFO: a graph path that names a FIFO is refused with a 400
// at once, whether it is posted under a load root, posted with none, or
// handed to Registry.Load (bcd's -preload), and no build is queued for it. An
// open that blocked waiting for a writer would hang the request or a build
// worker instead; each wait is bounded, and a writer is opened for as long as
// the test runs down so that a blocked open returns and the registry closes.
func TestLoadRefusesFIFO(t *testing.T) {
	dir := t.TempDir()
	fifo := filepath.Join(dir, "pipe.txt")
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	for _, c := range []struct {
		name, root, path string
	}{
		{"rooted", dir, "pipe.txt"},
		{"unrooted", "", fifo},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := NewRegistry(Config{LoadRoot: c.root})
			ts := httptest.NewServer(New(reg, nil))
			t.Cleanup(func() { unblockFIFO(fifo, func() { ts.Close(); reg.Close() }) })

			type answer struct {
				code int
				body errorBody
				err  error
			}
			done := make(chan answer, 1)
			go func() {
				data, _ := json.Marshal(LoadSpec{Name: "pipe", Path: c.path})
				resp, err := http.Post(ts.URL+"/v1/graphs", "application/json", bytes.NewReader(data))
				if err != nil {
					done <- answer{err: err}
					return
				}
				defer resp.Body.Close()
				var a answer
				a.code = resp.StatusCode
				raw, _ := io.ReadAll(resp.Body)
				a.err = json.Unmarshal(raw, &a.body)
				done <- a
			}()
			select {
			case a := <-done:
				if a.err != nil || a.code != http.StatusBadRequest || !strings.Contains(a.body.Error, "not a regular file") {
					t.Fatalf("POST path %q: %d %q (%v), want 400 refusing a non-regular file", c.path, a.code, a.body.Error, a.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("POST path %q: no answer in 5 s; the open is waiting for a writer", c.path)
			}
			if reg.Get("pipe") != nil {
				t.Fatal("a refused FIFO is registered")
			}
		})
	}

	t.Run("preload", func(t *testing.T) {
		reg := NewRegistry(Config{})
		t.Cleanup(func() { unblockFIFO(fifo, reg.Close) })
		if _, err := reg.Load(LoadSpec{Name: "pipe", Path: fifo}); err == nil || !strings.Contains(err.Error(), "not a regular file") {
			t.Fatalf("Registry.Load of a FIFO returned %v, want it refused as no regular file", err)
		}
		if reg.Get("pipe") != nil {
			t.Fatal("a refused FIFO is registered")
		}
	})
}

// unblockFIFO runs shut while it opens and closes a writer on fifo every few
// milliseconds, so that a reader blocked in open returns.
func unblockFIFO(fifo string, shut func()) {
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if w, err := os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
				w.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	shut()
	close(stop)
}
