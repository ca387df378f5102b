// Command mmfsd is the Multimedia Rope Server daemon: it formats (or
// reuses) a simulated multimedia disk and serves the rope protocol
// over TCP, playing the role of the paper's SPARCstation MRS fronting
// the PC-AT storage manager (§5).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"mmfs/internal/continuity"
	"mmfs/internal/core"
	"mmfs/internal/disk"
	"mmfs/internal/fault"
	"mmfs/internal/obs"
	"mmfs/internal/server"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7070", "listen address")
		cylinders = flag.Int("cylinders", 1200, "disk cylinders")
		surfaces  = flag.Int("surfaces", 8, "disk surfaces per cylinder")
		sectors   = flag.Int("sectors", 56, "sectors per track")
		rpm       = flag.Float64("rpm", 3600, "spindle speed")
		target    = flag.Int("target-cylinders", 32, "placement policy: max cylinders between successive strand blocks")
		cachemb   = flag.Int("cachemb", 0, "interval cache size in MiB: bounds the modelled residency (mmfs_cache_bytes); host memory added is mmfs_cache_owned_bytes (0 disables caching)")
		metrics   = flag.String("metrics-addr", "", "observability HTTP listen address serving /metrics (Prometheus text) and /trace (service-round JSON); empty disables")
		pprofAddr = flag.String("pprof-addr", "", "profiling HTTP listen address serving net/http/pprof under /debug/pprof/ (CPU, heap, goroutine, execution trace); empty disables")
		scenario  = flag.String("fault-scenario", "off", "fault-injection scenario (e.g. \"seed=42,readerr=0.02,slow=0.05x4,bad=100+50\"); \"off\" disables")
		connTO    = flag.Duration("conn-timeout", 0, "per-connection idle read and response write deadline (0 disables)")
		maxConns  = flag.Int("max-conns", 0, "max concurrent client connections; excess are refused with a busy error (0 = unlimited)")
		disks     = flag.Int("disks", 1, "independent spindles p; >1 stripes strands across a disk array with one concurrent sub-round and per-spindle admission each round")
		stripe    = flag.Int("stripe", 0, "striping unit in cylinders (must divide -cylinders); 0 picks cylinders/10")
		faultSp   = flag.Int("fault-spindle", 0, "spindle the fault scenario wraps when -disks > 1 (single-spindle degradation)")
		mirror    = flag.Bool("mirror", false, "pair the array's spindles into mirror groups: capacity halves, a whole-spindle loss degrades to the twin and REBUILD restores redundancy online")
		rbRate    = flag.Int("rebuild-rate", 0, "max rebuild chunks (spindle cylinders) copied per service round (0 = built-in default)")
		qosMax    = flag.Int("qos-max-stride", 0, "QoS load shedding: max sub-sampling stride for standard/best-effort plays under overload (≥2 enables, 0 keeps admission binary accept/reject)")
		qosDef    = flag.String("qos-default", "standard", "QoS class for PLAY requests that do not name one: premium, standard, or best-effort")
	)
	flag.Parse()

	sc, err := fault.ParseScenario(*scenario)
	if err != nil {
		log.Fatalf("mmfsd: %v", err)
	}
	defClass, err := continuity.ParseClass(*qosDef)
	if err != nil {
		log.Fatalf("mmfsd: %v", err)
	}

	g := disk.Geometry{
		Cylinders:       *cylinders,
		Surfaces:        *surfaces,
		SectorsPerTrack: *sectors,
		SectorSize:      2048,
		RPM:             *rpm,
		MinSeek:         2 * time.Millisecond,
		MaxSeek:         30 * time.Millisecond,
	}
	fs, err := core.Format(core.Options{
		Geometry: g, TargetCylinders: *target, CacheMB: *cachemb, Fault: sc,
		Disks: *disks, Stripe: *stripe, FaultSpindle: *faultSp,
		Mirror: *mirror, RebuildRate: *rbRate,
		QoSMaxStride: *qosMax, QoSDefault: defClass,
	})
	if err != nil {
		log.Fatalf("mmfsd: format: %v", err)
	}
	dev := fs.Device()
	lg := fs.Disk().Geometry()
	fmt.Printf("mmfsd: %d MB disk, r_dt %.1f Mbit/s, l_max_seek %.1f ms, placement ≤ %d cylinders\n",
		lg.CapacityBytes()>>20, dev.TransferRate/1e6, dev.MaxAccess*1000, *target)
	if a := fs.Array(); a != nil {
		if a.Mirrored() {
			fmt.Printf("mmfsd: %d-spindle mirrored array (%d pairs), stripe %d cylinders — survives any single-spindle loss; rebuild rate %d chunk(s)/round\n",
				a.Spindles(), a.Spindles()/2, a.StripeCylinders(), fs.Manager().RebuildRate())
		} else {
			fmt.Printf("mmfsd: %d-spindle striped array, stripe %d cylinders (admission per spindle: up to %d× the single-disk population)\n",
				a.Spindles(), a.StripeCylinders(), a.Spindles())
		}
	}
	if *cachemb > 0 {
		fmt.Printf("mmfsd: interval cache %d MiB (trailing plays of a rope are served from memory)\n", *cachemb)
	}
	if sc.Active() {
		fmt.Printf("mmfsd: fault injection %s (degradation ladder: retry, zero-fill, stop)\n", sc)
	}
	if *qosMax >= 2 {
		fmt.Printf("mmfsd: QoS load shedding enabled (default class %s, max stride %d)\n", defClass, *qosMax)
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("mmfsd: listen: %v", err)
	}
	fmt.Printf("mmfsd: serving on %s\n", lis.Addr())

	// Auxiliary HTTP listeners (observability, profiling): each serves
	// on its own goroutine until the drain closes it; auxWG joins them.
	var aux []net.Listener
	var auxWG sync.WaitGroup
	serveAux := func(name, addr string, h http.Handler) net.Addr {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			log.Fatalf("mmfsd: %s listen: %v", name, err)
		}
		aux = append(aux, l)
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			if err := http.Serve(l, h); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("mmfsd: %s serve: %v", name, err)
			}
		}()
		return l.Addr()
	}
	if *metrics != "" {
		a := serveAux("metrics", *metrics, obs.Handler(fs.Metrics(), fs.Trace()))
		fmt.Printf("mmfsd: metrics on http://%s/metrics (trace at /trace)\n", a)
	}
	if *pprofAddr != "" {
		fmt.Printf("mmfsd: pprof on http://%s/debug/pprof/\n", serveAux("pprof", *pprofAddr, pprofHandler()))
	}

	srv := server.New(fs)
	srv.Logf = log.Printf
	srv.ReadTimeout = *connTO
	srv.WriteTimeout = *connTO
	srv.MaxConns = *maxConns
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := make(chan struct{})
	go func() {
		<-sig
		fmt.Println("\nmmfsd: draining connections")
		for _, l := range aux {
			_ = l.Close()
		}
		// Graceful drain: in-flight requests get their responses, new
		// connections are refused, and Close returns once every
		// connection handler has exited.
		_ = srv.Close()
		fmt.Println("mmfsd: shutdown complete")
		close(drained)
	}()
	if err := srv.Serve(lis); err != nil {
		log.Fatalf("mmfsd: serve: %v", err)
	}
	// Serve returns nil only when the drain path closed the listener;
	// wait for the drain itself to finish before exiting the process.
	// The drain closes the auxiliary listeners, which unblocks their
	// goroutines; join them so a final log line is not lost.
	<-drained
	auxWG.Wait()
}

// pprofHandler serves the net/http/pprof endpoints on a mux of their
// own, so profiling is reachable only through -pprof-addr and never
// through the metrics listener.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
