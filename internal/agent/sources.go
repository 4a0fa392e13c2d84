package agent

import (
	"perfsight/internal/procfs"
)

// Sources is what one Agent.Fetch has read so far: the timestamp every
// record of the fetch carries, and each shared /proc file parsed at most
// once however many adapters draw a row from it. It belongs to one fetch —
// fetchAppend takes an idle one and resets it, so concurrent fetches never
// see each other's rows and no row outlives its fetch; only the parse
// scratch is reused. The zero value with TS set is ready for an adapter
// called on its own.
type Sources struct {
	TS int64

	netdev  []parsedFile[procfs.NetDevStats]
	softnet []parsedFile[procfs.SoftnetStats]
	ads     []Adapter // fetchAppend's resolved adapters
	req     []byte    // request-line scratch for the socket channels
}

// parsedFile is one file's rows, or why it could not be read, for the
// rest of the fetch: a source that failed fails every element on it.
type parsedFile[T any] struct {
	fs   *procfs.FS
	path string
	rows []T
	err  error
}

func (s *Sources) reset(ts int64) {
	s.TS = ts
	s.netdev, s.softnet = s.netdev[:0], s.softnet[:0]
	clear(s.ads)
	s.ads = s.ads[:0]
}

// netDev returns the devices of the net_device file at path, reading and
// parsing it on the fetch's first call and paying lat, the channel's
// emulated cost, for that read only.
func (s *Sources) netDev(fs *procfs.FS, path string, lat Latency) ([]procfs.NetDevStats, error) {
	return readOnce(&s.netdev, fs, path, lat, procfs.AppendNetDev)
}

// softnetRows is netDev for a softnet_stat file.
func (s *Sources) softnetRows(fs *procfs.FS, path string, lat Latency) ([]procfs.SoftnetStats, error) {
	return readOnce(&s.softnet, fs, path, lat, procfs.AppendSoftnet)
}

func readOnce[T any](files *[]parsedFile[T], fs *procfs.FS, path string, lat Latency,
	parse func([]T, []byte) ([]T, error)) ([]T, error) {
	for i := range *files {
		if f := &(*files)[i]; f.path == path && f.fs == fs {
			return f.rows, f.err
		}
	}
	// Reuse the slot an earlier fetch left behind the length, for its rows'
	// backing array.
	n := len(*files)
	if n < cap(*files) {
		*files = (*files)[:n+1]
	} else {
		*files = append(*files, parsedFile[T]{})
	}
	f := &(*files)[n]
	f.fs, f.path, f.rows = fs, path, f.rows[:0]
	lat.apply()
	var data []byte
	if data, f.err = fs.ReadFile(path); f.err == nil {
		f.rows, f.err = parse(f.rows, data)
	}
	return f.rows, f.err
}
