// Package mmfs is a production-quality Go reproduction of "Designing
// File Systems for Digital Video and Audio" (P. Venkat Rangan and
// Harrick M. Vin, SOSP 1991): a multimedia file system that stores
// continuous media as immutable strands placed by constrained block
// allocation, services concurrent real-time requests under the paper's
// admission control algorithm, and edits multimedia ropes copy-free
// with bounded scattering-maintenance copying.
//
// The implementation lives under internal/:
//
//   - internal/core — the mountable file system facade (Format/Open,
//     RECORD/PLAY/STOP/PAUSE/RESUME, INSERT/REPLACE/SUBSTRING/CONCATE/
//     DELETE, interests-based GC, integrated text files)
//   - internal/continuity — the analytical model (Eqs. 1–20)
//   - internal/msm — the Multimedia Storage Manager (service rounds,
//     admission control, k transitions, violation detection)
//   - internal/rope, internal/strand, internal/layout — the data model
//   - internal/disk, internal/alloc — the simulated storage substrate
//   - internal/server, internal/client, internal/wire — the MRS
//     network protocol
//   - internal/experiments — regenerates every quantitative artifact
//     of the paper
//
// See README.md for the architecture overview, DESIGN.md for the
// system inventory and experiment index, and EXPERIMENTS.md for the
// paper-versus-measured record. The benchmarks in bench_test.go
// regenerate each table and figure; run them with
//
//	go test -bench=. -benchmem
package mmfs
