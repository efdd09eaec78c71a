package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"time"
)

// client is the single closed-loop client: one keep-alive connection,
// the next request sent only after the previous response is read.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newTransport() http.RoundTripper {
	return &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
}

func newClient(base string, rt http.RoundTripper) *client {
	if rt == nil {
		rt = newTransport()
	}
	return &client{hc: &http.Client{Transport: rt, Timeout: 60 * time.Second}, base: base}
}

// post sends body and reads the whole response. The returned bytes are
// valid until the next call; the duration covers send to last byte.
func (c *client) post(path, id string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(t0), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(t0), err
}

func (c *client) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return buf.Bytes(), nil
}

// modelFree are the /evaluate fields that do not depend on the reward
// model, so they stay comparable with the oracle when the model fit
// changes. dm and dr are only checked for being finite numbers.
var modelFree = []string{"ips", "diagnostics", "fallback", "degraded"}

// evalGate checks /evaluate bodies: the first correct body must match
// the oracle on the model-free fields, and every body must be
// byte-identical to it, since drevald is deterministic.
type evalGate struct {
	oracle []byte
	ref    []byte
}

func (g *evalGate) check(body []byte) error {
	if g.ref != nil {
		if !bytes.Equal(body, g.ref) {
			return errors.New("response differs from the run's first response")
		}
		return nil
	}
	if err := matchOracle(body, g.oracle); err != nil {
		return err
	}
	g.ref = append([]byte(nil), body...)
	return nil
}

// matchOracle compares got with want on the model-free fields: every
// value want has must be present and equal in got (fields drevald adds
// later are ignored), and dm/dr must carry finite values.
func matchOracle(got, want []byte) error {
	var g, w map[string]any
	if err := json.Unmarshal(got, &g); err != nil {
		return fmt.Errorf("response is not JSON: %v", err)
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("oracle is not JSON: %v", err)
	}
	for _, k := range modelFree {
		if !contains(w[k], g[k]) {
			return fmt.Errorf("field %q differs from the oracle", k)
		}
	}
	return finiteEstimates(g, "dm", "dr")
}

func finiteEstimates(body map[string]any, fields ...string) error {
	for _, k := range fields {
		est, _ := body[k].(map[string]any)
		v, ok := est["value"].(float64)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("field %q has no finite value", k)
		}
	}
	return nil
}

// contains reports whether got holds every value of want.
func contains(want, got any) bool {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return false
		}
		for k, v := range w {
			if !contains(v, g[k]) {
				return false
			}
		}
		return true
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !contains(w[i], g[i]) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(want, got)
	}
}

// ingestGate checks /ingest acks and streamed reads: seq strictly
// increases, each ack's epoch is the preload plus every record acked
// so far, and each read reports that epoch.
type ingestGate struct {
	epoch   int
	lastSeq int64
}

func (g *ingestGate) checkAck(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("/ingest: status %d", status)
	}
	g.epoch += ingestBatch
	var ack ingestResponse
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("/ingest ack is not JSON: %v", err)
	}
	if ack.Acked != ingestBatch {
		return fmt.Errorf("/ingest acked %d records, sent %d", ack.Acked, ingestBatch)
	}
	if int64(ack.Seq) <= g.lastSeq {
		return fmt.Errorf("/ingest seq %d after %d", ack.Seq, g.lastSeq)
	}
	g.lastSeq = int64(ack.Seq)
	if ack.Epoch != g.epoch {
		return fmt.Errorf("/ingest epoch %d, want %d", ack.Epoch, g.epoch)
	}
	return nil
}

func (g *ingestGate) checkRead(status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("streamed /evaluate: status %d", status)
	}
	var resp map[string]any
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("streamed /evaluate is not JSON: %v", err)
	}
	meta, _ := resp["stream"].(map[string]any)
	if epoch, ok := meta["epoch"].(float64); !ok || int(epoch) != g.epoch {
		return fmt.Errorf("streamed /evaluate epoch %v, want %d", meta["epoch"], g.epoch)
	}
	return finiteEstimates(resp, "dm", "ips", "dr")
}
