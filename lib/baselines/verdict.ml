include Cbq.Verdict
