package nn

import "math"

// LRSchedule maps a step index to a learning rate.
type LRSchedule interface {
	LR(step int) float64
}

// ConstantLR returns the same learning rate at every step.
type ConstantLR float64

var _ LRSchedule = ConstantLR(0)

// LR implements LRSchedule.
func (c ConstantLR) LR(int) float64 { return float64(c) }

// CosineLR decays from Max to Min over TotalSteps with optional linear
// warmup — the schedule ViT training recipes use.
type CosineLR struct {
	Max, Min    float64
	WarmupSteps int
	TotalSteps  int
}

var _ LRSchedule = CosineLR{}

// LR implements LRSchedule.
func (c CosineLR) LR(step int) float64 {
	if c.WarmupSteps > 0 && step < c.WarmupSteps {
		return c.Max * float64(step+1) / float64(c.WarmupSteps)
	}
	if c.TotalSteps <= c.WarmupSteps {
		return c.Min
	}
	progress := float64(step-c.WarmupSteps) / float64(c.TotalSteps-c.WarmupSteps)
	if progress > 1 {
		progress = 1
	}
	return c.Min + 0.5*(c.Max-c.Min)*(1+math.Cos(math.Pi*progress))
}

// StepLR multiplies the base rate by Gamma every StepSize steps.
type StepLR struct {
	Base     float64
	Gamma    float64
	StepSize int
}

var _ LRSchedule = StepLR{}

// LR implements LRSchedule.
func (s StepLR) LR(step int) float64 {
	if s.StepSize <= 0 {
		return s.Base
	}
	return s.Base * math.Pow(s.Gamma, float64(step/s.StepSize))
}

// ScheduledOptimizer wraps Adam, updating its learning rate from a
// schedule before every step.
type ScheduledOptimizer struct {
	Schedule LRSchedule
	step     int
	adam     *Adam
}

var _ Optimizer = (*ScheduledOptimizer)(nil)

// NewScheduledAdam returns Adam driven by the schedule.
func NewScheduledAdam(s LRSchedule) *ScheduledOptimizer {
	return &ScheduledOptimizer{Schedule: s, adam: NewAdam(s.LR(0))}
}

// Step implements Optimizer.
func (o *ScheduledOptimizer) Step(params []*Param) {
	lr := o.Schedule.LR(o.step)
	o.step++
	o.adam.LR = lr
	o.adam.Step(params)
}

// CurrentStep returns the number of steps taken so far.
func (o *ScheduledOptimizer) CurrentStep() int { return o.step }
