// Command stad is the timing-analysis daemon, the serving counterpart of the
// one-shot cmd/sta. It binds an address and serves the versioned v1 wire API
// (internal/api/v1) over the STA engine until SIGINT/SIGTERM:
//
//	POST /analyze      one AnalyzeRequest, or a BatchRequest ("requests"
//	                   key); sync by default, async batches return 202 + id
//	GET  /result/{id}  poll an async batch
//	GET  /metrics      Prometheus exposition (service, engine and disk-tier
//	                   counters)
//	GET  /healthz      200 while accepting work, 503 while the queue is
//	                   saturated (use it for load-balancer draining)
//	GET  /trace        the newest request's trace as Chrome trace-event JSON
//	                   (?deterministic=1 for the byte-stable rendering)
//	GET  /debug/requests, /trace/request/{id}  the flight-recorded traces
//	     /debug/vars, /debug/pprof/  expvar and pprof
//
// Analyzers are pooled by request signature (features + budget); with
// -cache-dir every pool entry is backed by a persistent content-addressed
// delay cache, so a restarted daemon answers bit-identically warm:
//
//	stad -addr :8080 -cache-dir /var/tmp/qwm -cache-bytes 268435456
//	curl -s localhost:8080/analyze -d '{"netlist":"...deck text...","outputs":["y0"]}'
//
// When the admission queue is full the daemon sheds load with 429 +
// Retry-After rather than queueing unbounded work; size -queue and -workers
// to the deployment.
//
// A fleet of daemons can share one warm delay cache: -cache-listen ADDR
// additionally serves this replica's per-signature caches over the tier API
// (batched POST and PUT on /tier/{signature}/), and -remote-cache URL makes every
// pooled analyzer read through remote → disk against a peer's endpoint. The
// remote client sits behind one deadline-bounded attempt per read and a
// circuit breaker: a dead or flaky peer degrades to cache misses, and
// /healthz reports (but never 503s on) an open breaker.
//
// -queue and -workers below 1 and -analyzer-workers below 0 exit 2 with a
// usage line.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/service"
	"qwm/internal/sta/remotecache"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		cacheDir    = flag.String("cache-dir", "", "root directory for the persistent delay-cache tier (empty = memory only)")
		cacheBytes  = flag.Int64("cache-bytes", 0, "per-signature disk-cache size cap in bytes (0 = 256 MiB default, negative = unlimited)")
		queueLen    = flag.Int("queue", 64, "admission-queue capacity in sub-requests; a full queue sheds with 429")
		workers     = flag.Int("workers", 2, "queue-draining workers (concurrent analyses)")
		analyzerW   = flag.Int("analyzer-workers", 0, "per-analysis stage-evaluation workers (0 = GOMAXPROCS)")
		cacheListen = flag.String("cache-listen", "", "additionally serve this replica's delay cache to the fleet on this address (POST/PUT /tier/)")
		remoteCache = flag.String("remote-cache", "", "base URL of a peer's -cache-listen endpoint to read through (remote → disk)")
		replica     = flag.String("replica", "", "replica name stamped on cache-plane trace spans (defaults to the listen address)")
	)
	flag.Parse()
	if *queueLen < 1 || *workers < 1 || *analyzerW < 0 {
		fmt.Fprintf(os.Stderr, "stad: -queue and -workers must be >= 1 and -analyzer-workers >= 0, got -queue %d -workers %d -analyzer-workers %d\n", *queueLen, *workers, *analyzerW)
		fmt.Fprintln(os.Stderr, "usage: stad [-addr ADDR] [-cache-dir DIR] [-cache-bytes N] [-queue N] [-workers N] [-analyzer-workers N] [-cache-listen ADDR] [-remote-cache URL] [-replica NAME]")
		os.Exit(2)
	}
	if err := run(*addr, *cacheDir, *cacheBytes, *queueLen, *workers, *analyzerW, *cacheListen, *remoteCache, *replica); err != nil {
		fmt.Fprintln(os.Stderr, "stad:", err)
		os.Exit(1)
	}
}

func run(addr, cacheDir string, cacheBytes int64, queueLen, workers, analyzerWorkers int, cacheListen, remoteCache, replica string) error {
	reg := obs.NewRegistry()
	if !reg.Publish("stad") {
		fmt.Fprintln(os.Stderr, `stad: expvar name "stad" already taken; /debug/vars will not show this registry`)
	}
	build := obs.RegisterBuildInfo(reg)
	tech := mos.CMOSP35()
	flight := obs.NewFlightRecorder()
	svc := service.New(tech, devmodel.NewLibrary(tech), service.Options{
		QueueLen:        queueLen,
		Workers:         workers,
		AnalyzerWorkers: analyzerWorkers,
		CacheDir:        cacheDir,
		CacheBytes:      cacheBytes,
		RemoteCache:     remoteCache,
		Metrics:         reg,
		Flight:          flight,
	})
	svcHandler := svc.Handler()
	srv := &obs.Server{
		Registry: reg,
		Health:   svc.Healthy,
		Flight:   flight,
		HealthDetail: func() map[string]any {
			d := svc.HealthInfo()
			d["build"] = build
			return d
		},
		Extra: map[string]http.Handler{
			"/analyze": svcHandler,
			"/result/": svcHandler,
		},
	}
	bound, err := srv.Start(addr)
	if err != nil {
		svc.Close()
		flight.Close()
		return err
	}
	// The tier endpoint binds its own address so the fleet-internal cache
	// plane can be firewalled apart from the client-facing API.
	var cacheSrv *obs.Server
	if cacheListen != "" {
		tier := remotecache.NewServer(svc.TierStoreFor, reg)
		tier.Name = replica
		if tier.Name == "" {
			tier.Name = cacheListen
		}
		cacheSrv = &obs.Server{
			Registry: reg,
			Extra:    map[string]http.Handler{"/tier/": tier.Handler()},
		}
		cacheBound, err := cacheSrv.Start(cacheListen)
		if err != nil {
			srv.Shutdown(context.Background())
			svc.Close()
			return fmt.Errorf("cache-listen: %w", err)
		}
		fmt.Fprintf(os.Stderr, "stad: sharing delay cache on http://%s/tier/\n", cacheBound)
	}
	cache := "memory-only"
	if cacheDir != "" {
		cache = "disk tier at " + cacheDir
	}
	if remoteCache != "" {
		cache += "; remote tier at " + remoteCache
	}
	fmt.Fprintf(os.Stderr, "stad: serving on http://%s (POST /analyze, GET /result/, /metrics /healthz /trace); %s; ctrl-c to stop\n", bound, cache)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	signal.Stop(sig)
	fmt.Fprintln(os.Stderr, "stad: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(ctx)
	if cacheSrv != nil {
		if cerr := cacheSrv.Shutdown(ctx); err == nil {
			err = cerr
		}
	}
	// Close after the listeners stop: no new work can arrive, in-flight
	// analyses finish, the remote and disk tiers flush.
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	// Flight recorder last: every handler that could Record has returned.
	flight.Close()
	return err
}
