package main

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"mobicore/internal/fleet/store"
	"mobicore/internal/metrics"
	"mobicore/internal/sim"
)

// digester hashes outputs bit for bit: floats by their IEEE bits, strings
// length-prefixed, so no two different outputs share an encoding.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	io.WriteString(d.h, s)
}

func (d *digester) f64s(vs []float64) {
	d.u64(uint64(len(vs)))
	for _, v := range vs {
		d.f64(v)
	}
}

func (d *digester) series(ss ...metrics.Series) {
	for _, s := range ss {
		pts := s.Points()
		d.u64(uint64(len(pts)))
		for _, p := range pts {
			d.u64(uint64(p.At))
			d.f64(p.Value)
		}
	}
}

func (d *digester) sortedMap(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d.u64(uint64(len(keys)))
	for _, k := range keys {
		d.str(k)
		d.f64(m[k])
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:16]) }

// report hashes every scalar, per-cluster vector, per-workload map entry,
// and sampled series of a session report.
func (d *digester) report(r *sim.Report) {
	d.str(r.Policy)
	d.str(r.Platform)
	d.str(r.Placer)
	d.u64(uint64(r.Duration))
	for _, v := range []float64{
		r.AvgPowerW, r.PeakPowerW, r.EnergyJ, r.AvgFreqHz, r.AvgOnlineCores,
		r.AvgUtil, r.AvgQuota, r.AvgTempC, r.MaxTempC, r.ExecutedCycles,
		r.QuotaThrottledSec, r.ThermalCappedSec,
	} {
		d.f64(v)
	}
	d.sortedMap(r.PerWorkloadCycles)
	d.sortedMap(r.PerWorkloadPending)
	d.u64(uint64(len(r.ClusterNames)))
	for _, n := range r.ClusterNames {
		d.str(n)
	}
	for _, vs := range [][]float64{
		r.AvgClusterFreqHz, r.AvgClusterCores, r.AvgClusterTempC,
		r.MaxClusterTempC, r.ClusterThermalSec, r.ClusterEnergyJ,
	} {
		d.f64s(vs)
	}
	d.series(r.FreqSeries, r.CoreSeries, r.UtilSeries, r.QuotaSeries, r.TempSeries)
	d.series(r.ClusterFreqSeries...)
	d.series(r.ClusterCoreSeries...)
	d.series(r.ClusterTempSeries...)
	d.series(r.ClusterEnergySeries...)
}

// reportsDigest hashes a sequence of session reports in order.
func reportsDigest(reps []*sim.Report) string {
	d := newDigester()
	for _, r := range reps {
		d.report(r)
	}
	return d.sum()
}

// storeDigest hashes a fleet pass's output: the store's cells.jsonl bytes,
// then every power trace under traceDir (if any) by name, decompressed —
// so a change of compression settings alone keeps the digest.
func storeDigest(storeDir, traceDir string) (string, error) {
	d := newDigester()
	b, err := os.ReadFile(filepath.Join(storeDir, store.CellsFile))
	if err != nil {
		return "", err
	}
	d.str(string(b))
	if traceDir == "" {
		return d.sum(), nil
	}
	entries, err := os.ReadDir(traceDir)
	if err != nil {
		return "", err
	}
	for _, en := range entries { // ReadDir sorts by name
		if !strings.HasSuffix(en.Name(), ".trace.jsonl.gz") {
			continue
		}
		if err := d.gzipFile(filepath.Join(traceDir, en.Name())); err != nil {
			return "", err
		}
	}
	return d.sum(), nil
}

func (d *digester) gzipFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	d.str(filepath.Base(path))
	n, err := io.Copy(d.h, zr)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	d.u64(uint64(n))
	return zr.Close()
}

// digestFile is bench/testdata/digests.json: the expected output digest of
// every workload at each recorded seed.
type digestFile map[string]map[string]string

// expectedDigest looks up the recorded digest of a workload at a seed; ok
// is false for seeds nobody recorded, which get the self-consistency checks
// only.
func expectedDigest(path, workload string, seed int64) (want string, ok bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", false, err
	}
	var df digestFile
	if err := json.Unmarshal(b, &df); err != nil {
		return "", false, fmt.Errorf("%s: %w", path, err)
	}
	want, ok = df[workload][strconv.FormatInt(seed, 10)]
	return want, ok, nil
}
