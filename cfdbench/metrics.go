package main

import "time"

// endToEnd computes the metrics a user of cfdclean sees. Every workload
// reports all of them: its offline stage gives the repair times and
// quality, its service stage the write, read, recovery and disk
// figures. setup_s is the workload's own set-up.
func endToEnd(sp *spec, off *offlineResult, sv *serviceResult) map[string]metric {
	setup := median(sv.setup)
	if sp.setupOffline {
		setup = median(off.readCSV)
	}
	lat := msAll(sv.applyLat)
	return map[string]metric{
		"setup_s":                  {setup, "s"},
		"batch_repair_s":           {mean(off.batchS), "s"},
		"inc_repair_s":             {mean(off.incS), "s"},
		"batch_recall":             {off.batchQ.Recall, "ratio"},
		"inc_precision":            {off.incQ.Precision, "ratio"},
		"inc_recall":               {off.incQ.Recall, "ratio"},
		"apply_tuples_per_s":       {float64(sv.tuples) / sv.writeWindow.Seconds(), "tuples/s"},
		"apply_p50_ms":             {nearestRank(lat, 0.50), "ms"},
		"apply_p99_ms":             {nearestRank(lat, 0.99), "ms"},
		"dump_rows_per_s":          {median(sv.dumpRate), "rows/s"},
		"recovery_s":               {median(sv.recovery), "s"},
		"disk_bytes_per_user_byte": {float64(sv.diskBytes) / float64(sv.userBytes), "ratio"},
		"peak_rss_mb":              {sv.peakRSS, "MB"},
	}
}

// perLayer computes the traced run's per-layer metrics.
func perLayer(off *offlineResult, sv *serviceResult, lr *layerResult, self map[string]float64, overheadPct float64) map[string]metric {
	n := float64(max(1, lr.insertN))
	applyMs := msAll(lr.applyLat)
	stage := func(k int, q float64) float64 { return nearestRank(msAll(sv.stages[k]), q) }
	m := map[string]metric{
		"relation.read_csv_s":           {median(lr.readCSV), "s"},
		"relation.insert_us":            {us(lr.insertBare) / n, "us"},
		"relation.view_dump_rows_per_s": {median(lr.viewRowsPerS), "rows/s"},

		"cfd.detect_s":          {lr.detect.Seconds(), "s"},
		"cfd.viostore_build_s":  {lr.vioBuild.Seconds(), "s"},
		"cfd.viostore_delta_us": {us(lr.insertVio-lr.insertBare) / n, "us"},
		"cfd.violations":        {float64(lr.violations), "count"},
		"cfd.components":        {float64(lr.components), "count"},

		"repair.batch_s":                {mean(off.batchS), "s"},
		"repair.resolutions":            {float64(off.resolutions), "count"},
		"repair.instantiation_rounds":   {float64(off.rounds), "count"},
		"repair.changes":                {float64(off.batchChanges), "count"},
		"repair.changes_per_resolution": {float64(off.batchChanges) / float64(max(1, off.resolutions)), "ratio"},
		"repair.allocs":                 {float64(off.batchAllocs), "count"},
		"repair.precision":              {off.batchQ.Precision, "ratio"},

		"increpair.repair_s":         {mean(off.incS), "s"},
		"increpair.session_open_s":   {lr.sessionOpen.Seconds(), "s"},
		"increpair.apply_ms.p50":     {nearestRank(applyMs, 0.50), "ms"},
		"increpair.apply_ms.p99":     {nearestRank(applyMs, 0.99), "ms"},
		"increpair.dirty_tuples":     {float64(lr.dirtyTuples), "count"},
		"increpair.changes":          {float64(lr.changes), "count"},
		"increpair.allocs_per_tuple": {float64(lr.applyMallocs) / n, "count"},

		"wal.batch_encode_us":     {median(usAll(lr.walEncode)), "us"},
		"wal.append_us":           {median(usAll(lr.walAppend)), "us"},
		"wal.fsync_us":            {median(usAll(lr.walSync)), "us"},
		"wal.bytes_per_user_byte": {float64(lr.walBytes) / float64(max(1, lr.csvLen)), "ratio"},
		"wal.snapshot_encode_ms":  {median(msAll(lr.snapEncode)), "ms"},
		"wal.snapshot_write_ms":   {median(msAll(lr.snapWrite)), "ms"},
		"wal.snapshot_bytes":      {mean(intsF(lr.snapBytes)), "bytes"},
		"wal.restore_s":           {lr.restore.Seconds(), "s"},
		"wal.replay_s":            {lr.replay.Seconds(), "s"},

		"server.queue_ms.p50":   {stage(0, 0.50), "ms"},
		"server.queue_ms.p99":   {stage(0, 0.99), "ms"},
		"server.engine_ms.p50":  {stage(1, 0.50), "ms"},
		"server.engine_ms.p99":  {stage(1, 0.99), "ms"},
		"server.persist_ms.p50": {stage(2, 0.50), "ms"},
		"server.persist_ms.p99": {stage(2, 0.99), "ms"},
		"server.http_ms":        {median(msAll(sv.httpOver)), "ms"},
		"server.fold_batches":   {median(sv.foldMean), "count"},
		"server.prom_render_ms": {median(msAll(sv.promLat)), "ms"},
		"server.dump_ms":        {median(msAll(sv.dumpLat)), "ms"},

		"store.flush_ms":           {median(msAll(lr.storeFlush)), "ms"},
		"store.bytes_per_rotation": {mean(int64sF(lr.storeBytes)), "bytes"},

		"trace.overhead_pct": {overheadPct, "%"},
	}
	for _, layer := range layers {
		m["self_s."+layer] = metric{self[layer], "s"}
	}
	return m
}

// layers are the measured modules, in request order.
var layers = []string{"relation", "cfd", "repair", "increpair", "wal", "server", "store"}

func usAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}

func intsF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func int64sF(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// moves tags each per-layer metric with the end-to-end metric it should
// move and the workload where its layer does the most work.
var moves = map[string]string{
	"relation.read_csv_s":           "setup_s on batch-clean, ingest-dump",
	"relation.insert_us":            "apply_tuples_per_s on ingest-dump",
	"relation.view_dump_rows_per_s": "dump_rows_per_s on ingest-dump",
	"cfd.detect_s":                  "batch_repair_s, inc_repair_s on batch-clean",
	"cfd.viostore_build_s":          "setup_s on ingest-dump; inc_repair_s on batch-clean",
	"cfd.viostore_delta_us":         "apply_tuples_per_s on ingest-dump",
	"cfd.violations":                "batch_repair_s, inc_repair_s on batch-clean",
	"cfd.components":                "batch_repair_s on batch-clean",
	"repair.batch_s":                "batch_repair_s on every workload (offline stage)",
	"repair.resolutions":            "batch_repair_s on every workload (offline stage)",
	"repair.instantiation_rounds":   "batch_repair_s on every workload (offline stage)",
	"repair.changes":                "batch_recall on every workload (offline stage)",
	"repair.changes_per_resolution": "batch_repair_s, batch_recall on every workload (offline stage)",
	"repair.allocs":                 "batch_repair_s on every workload (offline stage)",
	"repair.precision":              "batch precision on every workload (offline stage)",
	"increpair.repair_s":            "inc_repair_s on every workload (offline stage)",
	"increpair.session_open_s":      "setup_s on stream-repair, ingest-dump",
	"increpair.apply_ms.p50":        "apply_p50_ms on stream-repair",
	"increpair.apply_ms.p99":        "apply_p99_ms on stream-repair",
	"increpair.dirty_tuples":        "apply_p50_ms on stream-repair",
	"increpair.changes":             "apply_p50_ms on stream-repair",
	"increpair.allocs_per_tuple":    "apply_tuples_per_s on stream-repair, ingest-dump",
	"wal.batch_encode_us":           "apply_tuples_per_s on ingest-dump",
	"wal.append_us":                 "apply_p50_ms on ingest-dump",
	"wal.fsync_us":                  "apply_p50_ms on ingest-dump, stream-repair",
	"wal.bytes_per_user_byte":       "disk_bytes_per_user_byte on ingest-dump",
	"wal.snapshot_encode_ms":        "apply_p99_ms on ingest-dump",
	"wal.snapshot_write_ms":         "apply_p99_ms on ingest-dump",
	"wal.snapshot_bytes":            "disk_bytes_per_user_byte on ingest-dump",
	"wal.restore_s":                 "recovery_s on ingest-dump",
	"wal.replay_s":                  "recovery_s on ingest-dump",
	"server.queue_ms.p50":           "apply_p50_ms on stream-repair, ingest-dump",
	"server.queue_ms.p99":           "apply_p99_ms on stream-repair, ingest-dump",
	"server.engine_ms.p50":          "apply_p50_ms on stream-repair",
	"server.engine_ms.p99":          "apply_p99_ms on stream-repair",
	"server.persist_ms.p50":         "apply_p50_ms on ingest-dump",
	"server.persist_ms.p99":         "apply_p99_ms on ingest-dump",
	"server.http_ms":                "apply_p50_ms, apply_tuples_per_s on ingest-dump",
	"server.fold_batches":           "apply_tuples_per_s on stream-repair, ingest-dump",
	"server.prom_render_ms":         "apply_p99_ms on stream-repair",
	"server.dump_ms":                "dump_rows_per_s on ingest-dump",
	"store.flush_ms":                "apply_p99_ms on ingest-dump if the served backend were -store disk",
	"store.bytes_per_rotation":      "disk_bytes_per_user_byte on ingest-dump if the served backend were -store disk",
	"trace.overhead_pct":            "none: the traced run's own cost",
}
