package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/mesh"
	"repro/internal/server"
)

// MeshName is the registry name the benchmark creates its mesh under.
const MeshName = "bench"

// Client is one closed-loop connection to meshd: its transport holds at
// most one TCP connection, so the number of Clients bounds the number of
// connections the benchmark opens.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a single-connection client for the daemon at addr.
func NewClient(addr string) *Client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &Client{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

// Close drops the client's connection.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// post sends a JSON body; id, when set, becomes the X-Request-Id.
func (c *Client) post(ctx context.Context, path string, body any, id string) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	return c.hc.Do(req)
}

// errorReply is meshd's body for every non-2xx response.
type errorReply struct {
	Error server.WireError `json:"error"`
}

// decodeReply reads a JSON response: the 2xx body into ok, anything else
// into an error carrying meshd's wire code.
func decodeReply(resp *http.Response, ok any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("read %d body: %w", resp.StatusCode, err)
	}
	if resp.StatusCode/100 != 2 {
		var e errorReply
		if err := json.Unmarshal(body, &e); err != nil {
			return fmt.Errorf("status %d with undecodable body %q", resp.StatusCode, body)
		}
		return fmt.Errorf("status %d %s: %s", resp.StatusCode, e.Error.Code, e.Error.Message)
	}
	if err := json.Unmarshal(body, ok); err != nil {
		return fmt.Errorf("undecodable %d body: %w", resp.StatusCode, err)
	}
	return nil
}

// CreateMesh registers the benchmark's w×h mesh.
func (c *Client) CreateMesh(ctx context.Context, w, h int) error {
	resp, err := c.post(ctx, "/v1/meshes", server.CreateMeshRequest{Name: MeshName, Width: w, Height: h}, "")
	if err != nil {
		return err
	}
	var info server.MeshInfo
	return decodeReply(resp, &info)
}

// Commit sends one fault transaction of explicit adds and repairs and
// returns the snapshot version it published.
func (c *Client) Commit(ctx context.Context, adds, repairs []mesh.Coord, id string) (uint64, error) {
	ops := make([]server.FaultOp, 0, len(adds)+len(repairs))
	for _, a := range adds {
		ops = append(ops, server.FaultOp{Op: "add", At: &server.Coord{X: a.X, Y: a.Y}})
	}
	for _, r := range repairs {
		ops = append(ops, server.FaultOp{Op: "repair", At: &server.Coord{X: r.X, Y: r.Y}})
	}
	resp, err := c.post(ctx, "/v1/meshes/"+MeshName+"/faults", server.FaultsWireRequest{Ops: ops}, id)
	if err != nil {
		return 0, err
	}
	var out server.FaultsWireResponse
	if err := decodeReply(resp, &out); err != nil {
		return 0, err
	}
	if out.OpsApplied != len(ops) {
		return 0, fmt.Errorf("commit applied %d of %d ops", out.OpsApplied, len(ops))
	}
	return out.SnapshotVersion, nil
}

// Answer is meshd's reply to one routing: a delivered route, or the
// ABORTED refusal of a walk that stopped undelivered.
type Answer struct {
	Route   *server.RouteWireResponse
	Aborted bool
}

// Route sends one routing request. Only a delivered route (200) and an
// ABORTED walk (422) are answers; every other reply is an error.
func (c *Client) Route(ctx context.Context, p Pair, oracle bool, id string) (Answer, error) {
	req := server.RouteWireRequest{
		Src: server.Coord{X: p.Src.X, Y: p.Src.Y}, Dst: server.Coord{X: p.Dst.X, Y: p.Dst.Y},
		Algorithm: "rb2", NoOracle: !oracle,
	}
	resp, err := c.post(ctx, "/v1/meshes/"+MeshName+"/route", req, id)
	if err != nil {
		return Answer{}, err
	}
	if resp.StatusCode == http.StatusUnprocessableEntity {
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return Answer{}, fmt.Errorf("read 422 body: %w", err)
		}
		var e errorReply
		if err := json.Unmarshal(body, &e); err != nil || e.Error.Code != "ABORTED" || e.Error.Abort == nil {
			return Answer{}, fmt.Errorf("422 that is not a well-formed ABORTED: %q", body)
		}
		return Answer{Aborted: true}, nil
	}
	var out server.RouteWireResponse
	if err := decodeReply(resp, &out); err != nil {
		return Answer{}, err
	}
	return Answer{Route: &out}, nil
}

// Batch sends one streaming batch request and returns its answers in
// request order. Every pair must come back exactly once, as a route or an
// ABORTED item; anything else is an error.
func (c *Client) Batch(ctx context.Context, pairs []Pair, id string) ([]Answer, error) {
	req := server.BatchWireRequest{Algorithm: "rb2", NoOracle: true, Pairs: make([]server.WirePair, len(pairs))}
	for i, p := range pairs {
		req.Pairs[i] = server.WirePair{Src: server.Coord{X: p.Src.X, Y: p.Src.Y}, Dst: server.Coord{X: p.Dst.X, Y: p.Dst.Y}}
	}
	resp, err := c.post(ctx, "/v1/meshes/"+MeshName+"/route/batch", req, id)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeReply(resp, &struct{}{})
	}
	defer resp.Body.Close()
	out := make([]Answer, len(pairs))
	got := make([]bool, len(pairs))
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	n := 0
	for sc.Scan() {
		var item server.BatchWireItem
		if err := json.Unmarshal(sc.Bytes(), &item); err != nil {
			return nil, fmt.Errorf("undecodable batch line: %w", err)
		}
		switch {
		case item.StreamError != nil:
			return nil, fmt.Errorf("stream error %s: %s", item.StreamError.Code, item.StreamError.Message)
		case item.Index == nil || *item.Index < 0 || *item.Index >= len(pairs) || got[*item.Index]:
			return nil, fmt.Errorf("batch line with a missing, out-of-range or repeated index")
		case item.Response != nil:
			out[*item.Index] = Answer{Route: item.Response}
		case item.Error != nil && item.Error.Code == "ABORTED":
			out[*item.Index] = Answer{Aborted: true}
		default:
			return nil, fmt.Errorf("batch item %d: neither a route nor ABORTED", *item.Index)
		}
		got[*item.Index] = true
		n++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read batch stream: %w", err)
	}
	if n != len(pairs) {
		return nil, fmt.Errorf("batch answered %d of %d pairs", n, len(pairs))
	}
	return out, nil
}

// wirePath converts a wire path to mesh coordinates.
func wirePath(p []server.Coord) []mesh.Coord {
	out := make([]mesh.Coord, len(p))
	for i, c := range p {
		out[i] = mesh.C(c.X, c.Y)
	}
	return out
}
