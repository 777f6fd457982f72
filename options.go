package meshroute

import "repro/internal/routing"

// RouteOption is a functional option for Route and RouteBatch. Options
// apply per call; zero options means "route with RB2, the diagonal
// policy, and full oracle comparisons".
type RouteOption func(*routeConfig)

// routeConfig is the resolved per-call configuration.
type routeConfig struct {
	algo    Algorithm
	opts    routing.Options
	workers int
	oracle  bool
}

// newRouteConfig resolves the per-call configuration from the defaults
// and the caller's options.
func newRouteConfig(opts []RouteOption) routeConfig {
	cfg := routeConfig{algo: RB2, oracle: true}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithAlgorithm selects the routing algorithm (default RB2, the paper's
// shortest-path algorithm).
func WithAlgorithm(a Algorithm) RouteOption {
	return func(c *routeConfig) { c.algo = a }
}

// WithPolicy selects the adaptive selection policy of Algorithm 2 step 3
// for this call (default PolicyDiagonal).
func WithPolicy(p Policy) RouteOption {
	return func(c *routeConfig) { c.opts.Policy = p }
}

// WithWorkers bounds the worker pool RouteBatch fans pairs across;
// <= 0 (the default) means GOMAXPROCS, and larger values are capped at
// GOMAXPROCS (walks are CPU-bound; extra workers only pin memory).
// Single-pair Route ignores it.
func WithWorkers(workers int) RouteOption {
	return func(c *routeConfig) { c.workers = workers }
}

// WithoutOracle skips the BFS shortest-path oracle: the response carries
// no Oracle report and unreachable destinations surface as *ErrAborted
// (walk failure) instead of ErrUnreachable. The oracle costs an O(nodes)
// BFS per pair — production hot paths and large sweeps should skip it;
// measurement and tests keep it.
func WithoutOracle() RouteOption {
	return func(c *routeConfig) { c.oracle = false }
}

// WithMaxHops bounds the walk's hop budget for this call (0 keeps the
// default of 8 x nodes). Exhausting the budget aborts with *ErrAborted.
func WithMaxHops(hops int) RouteOption {
	return func(c *routeConfig) { c.opts.MaxHops = hops }
}
