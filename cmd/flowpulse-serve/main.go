// Command flowpulse-serve runs FlowPulse detection as a standalone
// streaming service: producers (flowpulse-sim -stream, flowpulse-trace
// cat -stream, or anything speaking the one-line FPS1 preamble + raw
// .fpt bytes) connect over TCP or HTTP chunked POST, each session
// decodes its frames on a goroutine of its own, allocation-free per
// window, and the detect → localize stack runs server-side per job. Results surface
// operationally:
//
//	GET  /metrics   Prometheus text (windows/sec, deviation, alerts)
//	GET  /alerts    streaming NDJSON alert feed
//	GET  /healthz   200 while serving, 503 once draining
//	POST /ingest    HTTP producer endpoint (?mode=&label=)
//
// Usage:
//
//	flowpulse-serve                                  # TCP :9465, HTTP :9466
//	flowpulse-serve -listen :7000 -http :7001 -token hunter2
//	flowpulse-serve -rule 'min_dev=0.05,sink=log' \
//	                -rule 'job=2,sink=file,path=/var/log/fp-job2.ndjson'
//
// SIGTERM/SIGINT triggers a graceful drain: listeners close, in-flight
// sessions get -drain-timeout to finish, and each session's parity
// verdict is logged.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flowpulse/internal/serve"
)

// A client gets readHeaderTimeout to send its request headers and a
// kept-alive connection is closed after idleTimeout without a request.
// There is no read or write timeout: /ingest bodies and the /alerts
// feed stream for as long as their session lasts.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// ruleFlags collects repeatable -rule occurrences.
type ruleFlags []serve.Rule

func (r *ruleFlags) String() string { return fmt.Sprintf("%d rule(s)", len(*r)) }

func (r *ruleFlags) Set(s string) error {
	rule, err := serve.ParseRule(s)
	if err != nil {
		return err
	}
	*r = append(*r, rule)
	return nil
}

func main() {
	var rules ruleFlags
	var (
		listen   = flag.String("listen", ":9465", "TCP raw-stream listener address (empty: disabled)")
		httpAddr = flag.String("http", ":9466", "HTTP listener address for /metrics, /alerts, /healthz, /ingest (empty: disabled)")
		token    = flag.String("token", "", "require this producer token (TCP preamble token=, HTTP bearer)")
		drainTO  = flag.Duration("drain-timeout", 10*time.Second, "grace period for in-flight sessions on shutdown")
	)
	flag.Var(&rules, "rule", "alert routing rule, k=v CSV (min_dev=, job=, kind=, actions=, sink=stream|log|file, path=, name=); repeatable")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags|log.Lmicroseconds)
	srv, err := serve.New(serve.Config{
		Token: *token,
		Rules: rules,
		Logf:  logger.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *listen == "" && *httpAddr == "" {
		fmt.Fprintln(os.Stderr, "flowpulse-serve: both -listen and -http disabled, nothing to do")
		os.Exit(1)
	}

	var httpSrv *http.Server
	if *listen != "" {
		l, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logger.Printf("serve: TCP producers on %s", l.Addr())
		go srv.ServeTCP(l)
	}
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		logger.Printf("serve: HTTP on %s (/metrics /alerts /healthz /ingest)", hl.Addr())
		httpSrv = &http.Server{
			Handler:           srv.HTTPHandler(),
			ReadHeaderTimeout: readHeaderTimeout,
			IdleTimeout:       idleTimeout,
		}
		go httpSrv.Serve(hl)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	got := <-sig
	logger.Printf("serve: %v — draining (timeout %v)", got, *drainTO)
	clean := srv.Drain(*drainTO)
	if httpSrv != nil {
		// Every /ingest handler has written its status; Shutdown lets
		// the response finish before it closes the connection.
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		if httpSrv.Shutdown(ctx) != nil {
			httpSrv.Close()
		}
		cancel()
	}
	if !clean {
		logger.Printf("serve: drain deadline hit, streams were cut off")
		os.Exit(1)
	}
}
