package main

import (
	"encoding/json"
	"fmt"
	"os"

	"netloc/internal/core"
	"netloc/internal/workcache"
)

// regenDigests recomputes digests.json from the current code: the
// congestion and design CSVs and the reply netlocd sends for each upload
// body. Run it only when a change to those outputs is intended, and
// review the diff.
func regenDigests(path string) error {
	var d digestSet
	for name, dst := range map[string]*string{wlCongestion: &d.Congestion, wlDesign: &d.Design} {
		b, err := newBatch(name)
		if err != nil {
			return err
		}
		g, err := b.run(core.Options{Cache: workcache.New(0)})
		if err != nil {
			return err
		}
		csv, err := g.render()
		if err != nil {
			return err
		}
		*dst = sha256Hex(csv)
	}
	e, err := newNetlocdEnv(0)
	if err != nil {
		return err
	}
	defer e.Close()
	d.Uploads = map[string]string{}
	for i, ref := range uploadRefs {
		b, err := e.do(request{Class: classUpload, Index: i})
		if err != nil {
			return fmt.Errorf("upload %s: %w", uploadName(ref), err)
		}
		d.Uploads[uploadName(ref)] = sha256Hex(b)
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
