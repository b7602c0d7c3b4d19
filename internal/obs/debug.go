package obs

import (
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler returns the debug mux served by -debug-addr:
//
//	/metrics         Prometheus text exposition of the default registry
//	/debug/pprof/*   the standard pprof endpoints
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = defaultRegistry.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("anonlead debug endpoint\n\n/metrics\n/debug/pprof/\n"))
	})
	return mux
}

// Serve starts the debug HTTP server on addr in a background goroutine
// and returns the bound address (useful with ":0") or an error if the
// listen fails. The server lives until the process exits; CLIs treat it
// as a diagnostic side channel, not a managed component.
func Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
