// Command echoimage is the interactive CLI for the library: simulate a
// capture, estimate the user's distance, render the acoustic image, save a
// capture as WAV, or run a self-contained enroll/authenticate demo.
//
// Usage:
//
//	echoimage demo
//	echoimage distance -user 7 -distance 0.6
//	echoimage image -user 1 -distance 0.7 -out user1.pgm
//	echoimage record -user 1 -distance 0.7 -out capture.wav
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"echoimage"
	"echoimage/internal/array"
	"echoimage/internal/audio"
	"echoimage/internal/beamform"
	"echoimage/internal/dsp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "echoimage:", err)
		os.Exit(1)
	}
}

func run() error {
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("usage: echoimage demo|distance|image|record|beampattern|spectrum [flags]")
	}
	cmd := flag.Arg(0)
	sub := flag.NewFlagSet(cmd, flag.ExitOnError)
	user := sub.Int("user", 1, "roster subject ID (1-20)")
	distance := sub.Float64("distance", 0.7, "user-array distance, meters")
	beeps := sub.Int("beeps", 12, "number of probe chirps")
	session := sub.Int("session", 1, "collection session")
	grid := sub.Int("grid", 36, "imaging grid rows/cols")
	spacing := sub.Float64("spacing", 0.05, "imaging grid spacing, meters")
	outPath := sub.String("out", "", "output file (PGM for image, WAV for record)")
	if err := sub.Parse(flag.Args()[1:]); err != nil {
		return err
	}

	cfg := echoimage.DefaultConfig()
	cfg.GridRows, cfg.GridCols = *grid, *grid
	cfg.GridSpacingM = *spacing

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch cmd {
	case "demo":
		return demo(ctx, cfg)
	case "beampattern":
		return beampattern(cfg)
	case "spectrum":
		return spectrum(*user, *distance, *beeps, *session)
	case "distance":
		sys, err := echoimage.NewSystem(cfg)
		if err != nil {
			return err
		}
		cap, noiseOnly, err := echoimage.Simulate(echoimage.SimulateSpec{
			UserID: *user, DistanceM: *distance, Beeps: *beeps, Session: *session,
		})
		if err != nil {
			return err
		}
		res, err := sys.ProcessRecordedContext(ctx, cap, noiseOnly, nil)
		if err != nil {
			return err
		}
		fmt.Printf("true distance:      %.2f m\n", *distance)
		fmt.Printf("estimated distance: %.3f m (slant %.3f m)\n", res.Distance.UserM, res.Distance.SlantM)
		fmt.Printf("direct path at %.4f s, body echo at %.4f s\n",
			res.Distance.DirectPeakSec, res.Distance.EchoPeakSec)
		return nil
	case "image":
		sys, err := echoimage.NewSystem(cfg)
		if err != nil {
			return err
		}
		imgs, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
			UserID: *user, DistanceM: *distance, Beeps: *beeps, Session: *session,
		})
		if err != nil {
			return err
		}
		img := imgs[0]
		fmt.Printf("acoustic image of user %d at %.2f m (plane %.2f m):\n", *user, *distance, img.PlaneDistM)
		fmt.Println(img.ASCIIArt(64))
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := img.WritePGM(f); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *outPath)
		}
		return nil
	case "record":
		if *outPath == "" {
			return fmt.Errorf("record needs -out file.wav")
		}
		cap, _, err := echoimage.Simulate(echoimage.SimulateSpec{
			UserID: *user, DistanceM: *distance, Beeps: *beeps, Session: *session,
		})
		if err != nil {
			return err
		}
		// Concatenate the beep windows into one continuous multichannel
		// clip.
		mics := len(cap.Beeps[0])
		clip := &audio.Clip{SampleRate: int(cap.SampleRate), Samples: make([][]float64, mics)}
		for _, beep := range cap.Beeps {
			for m, ch := range beep {
				clip.Samples[m] = append(clip.Samples[m], ch...)
			}
		}
		// Normalize to 60% full scale for headroom.
		var peak float64
		for _, ch := range clip.Samples {
			for _, v := range ch {
				if v > peak {
					peak = v
				} else if -v > peak {
					peak = -v
				}
			}
		}
		if peak > 0 {
			scale := 0.6 / peak
			for _, ch := range clip.Samples {
				for i := range ch {
					ch[i] *= scale
				}
			}
		}
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := audio.WriteWAV(f, clip, 16); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d channels, %d frames at %d Hz\n",
			*outPath, clip.Channels(), clip.Frames(), clip.SampleRate)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// beampattern renders the array's response when steered at the user
// (θ = π/2, φ = π/3) across azimuths, illustrating why the paper caps the
// probe band at 3 kHz (grating lobes) and what "wide beam" means for a
// 6-microphone, 10 cm array.
func beampattern(cfg echoimage.Config) error {
	arr := array.ReSpeaker()
	bf, err := beamform.New(arr, nil, cfg.CenterFreqHz())
	if err != nil {
		return err
	}
	look := array.Direction{Azimuth: math.Pi / 2, Elevation: math.Pi / 3}
	w, err := bf.WeightsFor(look)
	if err != nil {
		return err
	}
	fmt.Printf("ReSpeaker beampattern at %.0f Hz, steered to θ=90° φ=60°\n", cfg.CenterFreqHz())
	fmt.Printf("far-field distance: %.2f m; grating-lobe free up to %.0f Hz\n\n",
		arr.FarFieldDistance(cfg.CenterFreqHz()), arr.MaxGratingLobeFreeHz())
	const width = 60
	for deg := -180; deg <= 180; deg += 10 {
		d := array.Direction{Azimuth: float64(deg) * math.Pi / 180, Elevation: math.Pi / 3}
		g := bf.Beampattern(w, []array.Direction{d})[0]
		bar := int(g * width)
		if bar > width {
			bar = width
		}
		fmt.Printf("%+4d° %-*s %.3f\n", deg, width, strings.Repeat("#", bar), g)
	}
	return nil
}

// spectrum renders the time-frequency content of one captured beep window:
// the direct chirp sweep, its echoes and the noise floor.
func spectrum(user int, distance float64, beeps, session int) error {
	cap, _, err := echoimage.Simulate(echoimage.SimulateSpec{
		UserID: user, DistanceM: distance, Beeps: beeps, Session: session,
	})
	if err != nil {
		return err
	}
	spec, err := dsp.STFT(cap.Beeps[0][0], cap.SampleRate, dsp.STFTConfig{FrameSize: 256, HopSize: 64})
	if err != nil {
		return err
	}
	fmt.Printf("spectrogram of beep 0, mic 0 (user %d at %.2f m); rows = frequency, cols = time\n\n", user, distance)
	ramp := []byte(" .:-=+*#%@")
	// Render 0–6 kHz, low frequencies at the bottom.
	maxBin := int(6000 / spec.BinHz)
	if maxBin > spec.Bins()-1 {
		maxBin = spec.Bins() - 1
	}
	var peak float64
	for _, mags := range spec.Mag {
		for k := 0; k <= maxBin; k++ {
			if mags[k] > peak {
				peak = mags[k]
			}
		}
	}
	const rows = 24
	for r := rows - 1; r >= 0; r-- {
		lo := maxBin * r / rows
		hi := maxBin * (r + 1) / rows
		fmt.Printf("%5.1f kHz ", float64(hi)*spec.BinHz/1000)
		for _, mags := range spec.Mag {
			var m float64
			for k := lo; k <= hi; k++ {
				if mags[k] > m {
					m = mags[k]
				}
			}
			// Log-compressed intensity.
			idx := 0
			if peak > 0 && m > 0 {
				db := 20 * math.Log10(m/peak)
				if db > -50 {
					idx = int((db + 50) / 50 * float64(len(ramp)-1))
				}
			}
			fmt.Printf("%c", ramp[idx])
		}
		fmt.Println()
	}
	fmt.Printf("%10s 0 … %.0f ms\n", "", float64(spec.Frames())*spec.HopSec*1000)
	return nil
}

// demo enrolls two users, then authenticates a fresh capture of each and a
// spoofer.
func demo(ctx context.Context, cfg echoimage.Config) error {
	sys, err := echoimage.NewSystem(cfg)
	if err != nil {
		return err
	}
	fmt.Println("enrolling users 3 and 4 (24 beeps each, quiet lab, 0.7 m)...")
	enrollment := make(map[int][]*echoimage.AcousticImage)
	for _, id := range []int{3, 4} {
		var pool []*echoimage.AcousticImage
		for placement := 0; placement < 4; placement++ {
			imgs, err := echoimage.SimulateImages(ctx, sys, echoimage.SimulateSpec{
				UserID: id, DistanceM: 0.7, Beeps: 6,
				Session: 1, Seed: int64(1000*id + placement),
			})
			if err != nil {
				return err
			}
			pool = append(pool, imgs...)
		}
		enrollment[id] = pool
	}
	auth, err := echoimage.Train(ctx, echoimage.DefaultAuthConfig(), enrollment)
	if err != nil {
		return err
	}
	fmt.Printf("trained: users %v, plane bins %v\n\n", auth.Users(), auth.Bins())

	try := func(label string, spec echoimage.SimulateSpec) error {
		imgs, err := echoimage.SimulateImages(ctx, sys, spec)
		if err != nil {
			return err
		}
		votes := map[int]int{}
		for _, img := range imgs {
			r := auth.Authenticate(img)
			key := 0
			if r.Accepted {
				key = r.UserID
			}
			votes[key]++
		}
		fmt.Printf("%-28s per-image decisions: %v\n", label, votes)
		return nil
	}
	if err := try("user 3 (session 3):", echoimage.SimulateSpec{UserID: 3, DistanceM: 0.7, Beeps: 6, Session: 3, Seed: 7003}); err != nil {
		return err
	}
	if err := try("user 4 (session 3):", echoimage.SimulateSpec{UserID: 4, DistanceM: 0.7, Beeps: 6, Session: 3, Seed: 7004}); err != nil {
		return err
	}
	if err := try("spoofer (user 15):", echoimage.SimulateSpec{UserID: 15, DistanceM: 0.7, Beeps: 6, Session: 3, Seed: 7015}); err != nil {
		return err
	}
	fmt.Println("\n(0 = rejected as spoofer)")
	return nil
}
