// Text classification: the paper notes ACME "can serve different
// Transformer-based models". This example runs the ACME width story on
// a BERT-style token encoder instead of the vision backbone: train on
// synthetic motif text, accumulate Taylor head/neuron importances, mask
// to half width, and compare size and accuracy — all on the exact same
// block machinery the vision pipeline uses.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"acme/internal/data"
	"acme/internal/nn"
)

func main() {
	rng := rand.New(rand.NewSource(1))
	spec := data.DefaultTextSpec()
	ds, err := data.GenerateText(spec, 400, rng)
	if err != nil {
		log.Fatal(err)
	}
	train, test := data.SplitText(ds, 0.75, rng)

	bb, err := nn.NewTokenBackbone(nn.TokenBackboneConfig{
		VocabSize: spec.VocabSize, SeqLen: spec.SeqLen,
		DModel: 16, NumHeads: 4, Hidden: 32, Depth: 2,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}
	clf := nn.NewTokenClassifier(bb, spec.NumClasses, rng)

	opt := nn.NewScheduledAdam(nn.CosineLR{Max: 3e-3, Min: 5e-4, TotalSteps: 150})
	for epoch := 0; epoch < 8; epoch++ {
		trainEpoch(clf, train, opt, rng)
	}
	fmt.Printf("full model:   %6d params, test accuracy %.3f\n",
		bb.ActiveParamCount(), accuracy(clf, test))

	// ACME width pruning: Taylor importance, then keep the top half of
	// heads and MLP neurons.
	bb.SetRecordImportance(true)
	for i := 0; i < 100 && i < train.Len(); i++ {
		logits, err := clf.Forward(train.Tokens[i])
		if err != nil {
			log.Fatal(err)
		}
		dl := make([]float64, len(logits))
		nn.CrossEntropy(dl, logits, train.Y[i])
		clf.Backward(dl)
	}
	bb.SetRecordImportance(false)
	nn.ZeroGrads(clf)
	if err := bb.ScaleWidth(0.5); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("half width:   %6d params, test accuracy %.3f (before fine-tune)\n",
		bb.ActiveParamCount(), accuracy(clf, test))

	for epoch := 0; epoch < 3; epoch++ {
		trainEpoch(clf, train, opt, rng)
	}
	fmt.Printf("fine-tuned:   %6d params, test accuracy %.3f\n",
		bb.ActiveParamCount(), accuracy(clf, test))
}

func trainEpoch(clf *nn.TokenClassifier, ds *data.TextDataset, opt nn.Optimizer, rng *rand.Rand) {
	order := rng.Perm(ds.Len())
	for start := 0; start < len(order); start += 16 {
		end := start + 16
		if end > len(order) {
			end = len(order)
		}
		nn.ZeroGrads(clf)
		for _, i := range order[start:end] {
			logits, err := clf.Forward(ds.Tokens[i])
			if err != nil {
				log.Fatal(err)
			}
			dl := make([]float64, len(logits))
			nn.CrossEntropy(dl, logits, ds.Y[i])
			for j := range dl {
				dl[j] /= float64(end - start)
			}
			clf.Backward(dl)
		}
		opt.Step(clf.Params())
	}
}

func accuracy(clf *nn.TokenClassifier, ds *data.TextDataset) float64 {
	var correct int
	for i := range ds.Tokens {
		logits, err := clf.Forward(ds.Tokens[i])
		if err != nil {
			log.Fatal(err)
		}
		if nn.Argmax(logits) == ds.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.Len())
}
