package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"cswap/internal/placement"
	"cswap/internal/wire"
)

// shardHeader carries the client's routing hint; the cluster validates it
// against its own ring and answers 421 misrouted when the hint is stale.
// Mirrors the server's ShardHeader constant (the client package stays free
// of the server package's executor dependency tree).
const shardHeader = "X-CSwap-Shard"

// ClusterClient talks to a sharded cswapd. It discovers the shard map
// from the /cluster endpoint, routes every operation to the shard its
// consistent-hash ring says owns the (tenant, tensor) key, and sends the
// computed shard as a routing hint. When the cluster refuses the hint —
// the topology changed under the client, typically a shard drain — the
// client refreshes its map once and retries, so a rebalance costs one
// extra round trip instead of an error.
//
// A ClusterClient pointed at a plain single-shard cswapd works unchanged:
// the server publishes a one-shard map and every key routes to shard 0.
// It is safe for concurrent use.
type ClusterClient struct {
	ops
	c *Client

	mu   sync.Mutex
	m    placement.Map
	ring *placement.Ring
}

// NewCluster returns a cluster-aware client for the daemon at baseURL.
// Options are the same as New's; the shard map is fetched lazily on first
// use (or eagerly via Refresh).
func NewCluster(baseURL string, opts ...Option) *ClusterClient {
	cc := &ClusterClient{c: New(baseURL, opts...)}
	cc.call = cc.run
	return cc
}

// Refresh fetches the shard map from /cluster and rebuilds the routing
// ring.
func (cc *ClusterClient) Refresh(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cc.c.base+"/cluster", nil)
	if err != nil {
		return err
	}
	resp, err := cc.c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%w: cluster map status %d", ErrUnavailable, resp.StatusCode)
	}
	var m placement.Map
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return fmt.Errorf("%w: decoding cluster map: %v", ErrProtocol, err)
	}
	cc.mu.Lock()
	cc.m, cc.ring = m, m.Ring()
	cc.mu.Unlock()
	return nil
}

// Map returns the cached shard map (zero value before first use).
func (cc *ClusterClient) Map() placement.Map {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.m
}

// routing returns the cached ring, fetching the map on first use.
func (cc *ClusterClient) routing(ctx context.Context) (*placement.Ring, error) {
	cc.mu.Lock()
	ring := cc.ring
	cc.mu.Unlock()
	if ring != nil {
		return ring, nil
	}
	if err := cc.Refresh(ctx); err != nil {
		return nil, err
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.ring, nil
}

// tenant is the effective tenant for placement keys: requests without a
// tenant land in the server's default namespace, and the placement key
// must agree with what the server computes.
func (cc *ClusterClient) tenant() string {
	if cc.c.tenant != "" {
		return cc.c.tenant
	}
	return "default"
}

// run is the cluster round trip: compute the owner of the name the frame
// addresses (a tensor's, or a pool's — a pool's batches all land on the
// shard that registered it), send with the hint, and on a misrouted refusal
// refresh the map and re-route. Two refresh cycles bound the loop —
// topology changes mid-request are rare, and a cluster that keeps refusing
// fresh hints is broken, not busy.
func (cc *ClusterClient) run(ctx context.Context, f wire.Frame, dst []float32) (*wire.Frame, error) {
	for attempt := 0; ; attempt++ {
		ring, err := cc.routing(ctx)
		if err != nil {
			return nil, err
		}
		owner, ok := ring.Owner(placement.Key(cc.tenant(), f.Name))
		if !ok {
			return nil, fmt.Errorf("%w: cluster map has no active shards", ErrUnavailable)
		}
		out, err := cc.c.do(ctx, f, strconv.Itoa(owner), dst)
		if err == nil || attempt >= 2 || !errors.Is(err, ErrMisrouted) {
			return out, err
		}
		if rerr := cc.Refresh(ctx); rerr != nil {
			return nil, fmt.Errorf("refreshing cluster map after %v: %w", err, rerr)
		}
	}
}

// DrainShard asks the cluster to migrate every tensor off one shard and
// retire it (the admin rebalance entry point).
func (cc *ClusterClient) DrainShard(ctx context.Context, shard int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		fmt.Sprintf("%s/admin/drain?shard=%d", cc.c.base, shard), nil)
	if err != nil {
		return err
	}
	resp, err := cc.c.hc.Do(req)
	if err != nil {
		return err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return responseError(resp)
	}
	// The topology just changed by request; refresh eagerly rather than
	// paying a misrouted round trip on the next operation.
	return cc.Refresh(ctx)
}

// Health probes /healthz on the cluster router.
func (cc *ClusterClient) Health(ctx context.Context) error { return cc.c.Health(ctx) }

// Metrics scrapes the shared /metrics exposition (all shards' series).
func (cc *ClusterClient) Metrics(ctx context.Context) (string, error) { return cc.c.Metrics(ctx) }
