// Package client is the Go client for cswapd, the CSWAP swap service
// daemon: a thin, dependency-free (stdlib-only) wrapper that speaks the
// wire package's length-prefixed binary frames over HTTP with connection
// reuse, per-tenant namespacing, and retry-with-backoff on the service's
// bounded-refusal answers (409 busy, 429 saturated).
//
//	c := client.New("http://127.0.0.1:7077", client.WithTenant("trainer-a"))
//	if err := c.Register(ctx, "conv1/act", data); err != nil { ... }
//	if err := c.SwapOut(ctx, "conv1/act"); err != nil { ... }          // service picks the codec
//	if err := c.SwapOut(ctx, "conv1/act", client.WithCodec(client.ZVC)); err != nil { ... }
//	restored, err := c.SwapIn(ctx, "conv1/act")
//	err = c.SwapInInto(ctx, "conv1/act", buf) // into a buffer the caller owns
//
// Against a sharded daemon (cswapd -shards N), NewCluster returns a
// cluster-aware client that discovers the shard map from /cluster, routes
// each key to its owning shard, and transparently refreshes its map when
// the topology changes (a shard drain).
//
// The service answers saturation and per-tensor contention with refusals
// rather than queueing; the client turns those into bounded retries so a
// well-behaved caller sees backpressure as latency, not errors. Every
// other failure surfaces as a typed sentinel (ErrQuota, ErrNotFound, ...)
// wrapped with the server's message.
package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cswap/internal/compress"
	"cswap/internal/wire"
)

// Algorithm re-exports the codec selector so client users need no other
// cswap import; the constants are identical to the root package's.
type Algorithm = compress.Algorithm

// The compression algorithms a swap-out may request. Auto delegates the
// choice to the service: the tenant's tuned codec when cswapd runs with
// -tune, else the best modeled ratio for the tensor's sparsity.
const (
	Auto = compress.Auto
	ZVC  = compress.ZVC
	RLE  = compress.RLE
	CSR  = compress.CSR
	LZ4  = compress.LZ4
	HUF  = compress.Huffman
)

// Lane selects the service-side admission lane for a swap request when
// the daemon runs its SLO scheduler (cswapd -sched). The values match the
// wire encoding.
type Lane uint8

const (
	// LaneCritical is for on-the-critical-path work (a demand swap-in the
	// next decode step blocks on): granted ahead of everything queued.
	LaneCritical Lane = 0
	// LaneNormal is the default for demand swap traffic.
	LaneNormal Lane = 1
	// LaneSpeculative marks prefetch-ahead work the service may queue
	// behind demand traffic and shed mid-flight under critical pressure.
	LaneSpeculative Lane = 2
)

// Typed client errors; each wraps the server's message text.
var (
	// ErrBusy survives the retry budget on 409: another request holds the
	// tensor. Back off and retry.
	ErrBusy = errors.New("cswap client: tensor busy")
	// ErrSaturated survives the retry budget on 429: the service's
	// admission window is full.
	ErrSaturated = errors.New("cswap client: service saturated")
	// ErrExpired reports a WithDeadline request whose deadline passed while
	// it was queued for admission. It is never retried: the same deadline
	// cannot fare better on a second trip through the queue.
	ErrExpired = errors.New("cswap client: deadline expired in admission queue")
	// ErrQuota reports the tenant's device-memory quota is exhausted.
	ErrQuota = errors.New("cswap client: tenant quota exceeded")
	// ErrOutOfMemory reports the shared device pool is exhausted.
	ErrOutOfMemory = errors.New("cswap client: service out of device memory")
	// ErrNotFound reports an operation on an unregistered tensor.
	ErrNotFound = errors.New("cswap client: unknown tensor")
	// ErrExists reports registering a name the tenant already holds.
	ErrExists = errors.New("cswap client: tensor already registered")
	// ErrState reports an operation illegal in the tensor's current state
	// (e.g. swapping out a tensor that is already swapped).
	ErrState = errors.New("cswap client: operation illegal in tensor state")
	// ErrUnavailable reports a draining or closed service.
	ErrUnavailable = errors.New("cswap client: service unavailable")
	// ErrProtocol reports a malformed frame or an unexpected response.
	ErrProtocol = errors.New("cswap client: protocol error")
	// ErrMisrouted reports that the cluster refused a stale routing hint:
	// the shard this client computed no longer owns the key. Refresh the
	// shard map and retry (the cluster client does this automatically).
	ErrMisrouted = errors.New("cswap client: request misrouted")
)

// Client talks to one cswapd instance. It is safe for concurrent use; all
// requests share one http.Client whose transport pools connections.
type Client struct {
	ops
	base       string
	tenant     string
	tenantHdr  []string // the tenant header's value, shared read-only by every request
	hc         *http.Client
	maxRetries int
	backoff    time.Duration
	maxPayload uint32
	sleep      func(context.Context, time.Duration) error
}

// Option configures a Client.
type Option func(*Client)

// WithTenant namespaces every request under the given tenant session.
func WithTenant(tenant string) Option { return func(c *Client) { c.tenant = tenant } }

// WithHTTPClient substitutes the underlying http.Client (custom
// transports, test doubles). The default pools keep-alive connections.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetry sets the retry budget for busy/saturated refusals and the
// base backoff, which doubles per attempt (the server's Retry-After hint
// is honored when it is longer). WithRetry(0, 0) disables retries.
func WithRetry(maxRetries int, base time.Duration) Option {
	return func(c *Client) { c.maxRetries, c.backoff = maxRetries, base }
}

// WithMaxPayload caps the response frames the client will decode.
func WithMaxPayload(n uint32) Option { return func(c *Client) { c.maxPayload = n } }

// New returns a client for the service at baseURL (e.g.
// "http://127.0.0.1:7077").
func New(baseURL string, opts ...Option) *Client {
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		tenant:     "",
		maxRetries: 8,
		backoff:    25 * time.Millisecond,
		hc: &http.Client{
			// MaxIdleConnsPerHost matters more than usual here: the client
			// talks to ONE host (or one router), so the per-host cap IS the
			// connection pool. The Go default of 2 would discard all but two
			// keep-alive connections under a concurrent decode-step batch
			// load, paying a TCP handshake per swap instead of reusing.
			Transport: &http.Transport{
				MaxIdleConns:        128,
				MaxIdleConnsPerHost: 128,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		sleep: sleepCtx,
	}
	c.call = func(ctx context.Context, f wire.Frame, dst []float32) (*wire.Frame, error) {
		return c.do(ctx, f, "", dst)
	}
	for _, o := range opts {
		o(c)
	}
	if c.tenant != "" {
		c.tenantHdr = []string{c.tenant}
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Health probes /healthz; nil means the service is up and not draining.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: healthz status %d", ErrUnavailable, resp.StatusCode)
	}
	return nil
}

// Metrics scrapes /metrics and returns the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%w: metrics status %d", ErrUnavailable, resp.StatusCode)
	}
	return string(b), nil
}

// retryable reports whether a refusal is worth another attempt: the
// bounded-refusal answers (busy, saturated) and the drain window.
func retryable(status int) bool {
	return status == http.StatusConflict || status == http.StatusTooManyRequests ||
		status == http.StatusServiceUnavailable
}

// requestBody is one call's request: a prepared frame whose float field is
// still the caller's slice, handed to the transport as a fresh reader per
// attempt. The transport may keep reading a request body after an early
// refusal has already ended the call, so every reader goes dead — under the
// lock a Read holds — before the call returns the slice to its caller.
type requestBody struct {
	enc  *wire.Encoding
	mu   sync.Mutex
	dead bool
}

type bodyReader struct {
	b *requestBody
	r io.Reader
}

func (b *requestBody) open() io.ReadCloser { return &bodyReader{b, b.enc.Reader()} }

func (b *requestBody) kill() {
	b.mu.Lock()
	b.dead = true
	b.mu.Unlock()
}

func (r *bodyReader) Read(p []byte) (int, error) {
	r.b.mu.Lock()
	defer r.b.mu.Unlock()
	if r.b.dead {
		return 0, errors.New("cswap client: request body read after the call returned")
	}
	return r.r.Read(p)
}

func (r *bodyReader) Close() error { return nil }

// do sends one framed request — to the operation table's URL for the
// frame's type, with shard as the cluster routing hint when non-empty —
// retrying bounded refusals with doubling backoff (honoring a longer server
// Retry-After), and decodes the response frame the table promises, its
// float field straight off the response body into dst when it fits.
func (c *Client) do(ctx context.Context, f wire.Frame, shard string, dst []float32) (*wire.Frame, error) {
	enc, err := wire.Prepare(nil, &f)
	if err != nil {
		return nil, err
	}
	body := &requestBody{enc: enc}
	defer body.kill()
	op := &wire.Ops[f.Type]
	var last error
	for attempt := 0; ; attempt++ {
		resp, err := c.send(ctx, op.Path, body, shard)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusOK {
			defer resp.Body.Close()
			out, err := wire.ReadInto(resp.Body, c.maxPayload, dst)
			if err != nil {
				return nil, fmt.Errorf("%w: decoding %s response: %v", ErrProtocol, op.Path, err)
			}
			if out.Type != op.Resp {
				return nil, fmt.Errorf("%w: %s answered %s frame, want %s", ErrProtocol, op.Path, out.Type, op.Resp)
			}
			return out, nil
		}
		last = responseError(resp)
		hint := retryAfter(resp)
		drain(resp.Body)
		// 409 "exists"/"state" conflicts are not contention: retrying the
		// identical request cannot succeed.
		if !retryable(resp.StatusCode) ||
			(!errors.Is(last, ErrBusy) && !errors.Is(last, ErrSaturated) && !errors.Is(last, ErrUnavailable)) {
			return nil, last
		}
		if attempt >= c.maxRetries {
			return nil, fmt.Errorf("%w (after %d retries)", last, attempt)
		}
		// Double per attempt, capped: a generous retry budget must not turn
		// into minutes-long (or overflowing) sleeps.
		const maxBackoff = time.Second
		d := c.backoff
		for i := 0; i < attempt && d < maxBackoff; i++ {
			d *= 2
		}
		if d > maxBackoff {
			d = maxBackoff
		}
		if hint > d {
			d = hint
		}
		// Never sleep past the caller's own deadline: when the context
		// would expire mid-backoff, the refusal in hand is the answer — a
		// context.DeadlineExceeded after a pointless sleep would hide it.
		if dl, ok := ctx.Deadline(); ok && d >= time.Until(dl) {
			return nil, fmt.Errorf("%w (context deadline before next retry)", last)
		}
		if d > 0 {
			if err := c.sleep(ctx, d); err != nil {
				return nil, err
			}
		}
	}
}

// octetStream is the Content-Type value of every request body, shared
// read-only by the header maps it is set in.
var octetStream = []string{"application/octet-stream"}

// send issues one POST to the operation's URL with the tenant header and
// the routing hint. The header values the client always sends are shared
// slices, set by their canonical keys.
func (c *Client) send(ctx context.Context, op string, body *requestBody, shard string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/"+op, body.open())
	if err != nil {
		return nil, err
	}
	req.ContentLength = body.enc.Len()
	req.GetBody = func() (io.ReadCloser, error) { return body.open(), nil }
	req.Header["Content-Type"] = octetStream
	if c.tenantHdr != nil {
		req.Header["X-Cswap-Tenant"] = c.tenantHdr
	}
	if shard != "" {
		req.Header.Set(shardHeader, shard)
	}
	return c.hc.Do(req)
}

// responseError maps a non-200 response onto the client's sentinel errors
// using the service's machine-readable code header.
func responseError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	text := strings.TrimSpace(string(msg))
	code := resp.Header.Get("X-CSwap-Error")
	var sentinel error
	switch code {
	case "busy":
		sentinel = ErrBusy
	case "saturated":
		sentinel = ErrSaturated
	case "expired":
		sentinel = ErrExpired
	case "quota":
		sentinel = ErrQuota
	case "oom":
		sentinel = ErrOutOfMemory
	case "not-found":
		sentinel = ErrNotFound
	case "exists":
		sentinel = ErrExists
	case "state":
		sentinel = ErrState
	case "draining":
		sentinel = ErrUnavailable
	case "misrouted":
		sentinel = ErrMisrouted
	default:
		return fmt.Errorf("%w: status %d: %s", ErrProtocol, resp.StatusCode, text)
	}
	return fmt.Errorf("%w: %s", sentinel, text)
}

// retryAfter parses the Retry-After hint, zero if absent or garbage. RFC
// 9110 §10.2.3 allows both forms: delta-seconds and an HTTP-date (taken
// relative to the Date header when the server sent one, else local now —
// a past date means "retry immediately").
func retryAfter(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	at, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	now := time.Now()
	if d, err := http.ParseTime(resp.Header.Get("Date")); err == nil {
		now = d
	}
	if hint := at.Sub(now); hint > 0 {
		return hint
	}
	return 0
}

// drain discards and closes a response body so the connection returns to
// the keep-alive pool.
func drain(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	_ = body.Close()
}
