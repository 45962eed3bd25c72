(** Static branch labelling: the paper's "static analysis" instrumentation
    input (§2.2), refined by the precision pipeline.

    Pass order: {!Pointsto} (aliasing) -> {!Constprop} (constant branch
    conditions, dead code) -> {!Taint} with strong updates and dead-arm
    pruning -> labelling.  Branches whose condition is provably constant,
    and branches proved dead, are labelled [Concrete] regardless of taint;
    everything the taint analysis flags is [Symbolic].  Guarantee: every
    truly symbolic branch is labelled [Symbolic]; imprecision only ever
    adds spurious [Symbolic] labels.

    [refine = false] disables constprop and strong updates, restoring the
    seed's maximally conservative pipeline (used as the precision
    baseline). *)

open Minic

type result = {
  labels : Label.map;
  n_symbolic : int;
  n_concrete : int;
  contexts : int;  (** (function, context) pairs analysed by taint *)
  constprop : Constprop.result option;  (** present when [refine] *)
  provenance : Provenance.t;  (** witness chains for symbolic labels *)
  n_const_proved : int;  (** branches labelled Concrete via constancy *)
  n_dead_proved : int;  (** branches labelled Concrete via deadness *)
  widened_loops : int;  (** loop fixpoints finished by widening *)
}

(** Analyze [prog].  [analyze_lib = false] reproduces the paper's uServer
    setup: library code is not analysed and all its branches are
    conservatively labelled symbolic. *)
let analyze ?(analyze_lib = true) ?(refine = true)
    ?(telemetry = Telemetry.disabled) (prog : Program.t) : result =
  Telemetry.Span.with_ telemetry ~name:"analyze.static"
    ~attrs:
      [
        ("refine", Telemetry.Event.Bool refine);
        ("analyze_lib", Telemetry.Event.Bool analyze_lib);
      ]
  @@ fun sp ->
  let pass name f =
    Telemetry.Span.with_ telemetry ~parent:sp ~name (fun _ -> f ())
  in
  let pta = pass "static.pointsto" (fun () -> Pointsto.analyze prog) in
  (* constprop always analyses library code: constant reasoning is sound
     everywhere, and §5.3's conservative treatment only concerns the taint
     labels (library branches are never overridden below when
     [analyze_lib = false]) *)
  let constprop =
    if refine then
      Some (pass "static.constprop" (fun () -> Constprop.analyze prog pta))
    else None
  in
  let taint =
    pass "static.taint" (fun () ->
        Taint.analyze
          ~cfg:{ Taint.analyze_lib; strong_updates = refine }
          ?constprop prog pta)
  in
  let n = Program.nbranches prog in
  let labels = Label.make ~nbranches:n Label.Concrete in
  for bid = 0 to n - 1 do
    if Taint.is_branch_symbolic taint bid then labels.(bid) <- Label.Symbolic
  done;
  (* constant-condition and dead branches are Concrete regardless of
     taint, except library branches under the conservative mode *)
  let n_const = ref 0 and n_dead = ref 0 in
  (match constprop with
  | Some cp ->
      Array.iter
        (fun (b : Number.info) ->
          if analyze_lib || not b.bis_lib then
            match Constprop.branch_const_value cp b.bid with
            | Some _ ->
                incr n_const;
                labels.(b.bid) <- Label.Concrete
            | None ->
                if Constprop.is_dead cp b.bid then begin
                  incr n_dead;
                  labels.(b.bid) <- Label.Concrete
                end)
        prog.branches
  | None -> ());
  let widened_loops =
    Taint.widened_loops taint
    + match constprop with Some cp -> cp.Constprop.widened_loops | None -> 0
  in
  let r =
    {
      labels;
      n_symbolic = Label.count labels Label.Symbolic;
      n_concrete = Label.count labels Label.Concrete;
      contexts = Taint.contexts_analyzed taint;
      constprop;
      provenance = Taint.provenance taint;
      n_const_proved = !n_const;
      n_dead_proved = !n_dead;
      widened_loops;
    }
  in
  Telemetry.Span.addi sp "symbolic" r.n_symbolic;
  Telemetry.Span.addi sp "concrete" r.n_concrete;
  Telemetry.Span.addi sp "contexts" r.contexts;
  Telemetry.Metrics.incr_named telemetry "static.const_proved" ~by:r.n_const_proved;
  Telemetry.Metrics.incr_named telemetry "static.dead_proved" ~by:r.n_dead_proved;
  r

(** Precision report for a static result against dynamic ground-truth
    labels. *)
let precision (r : result) (prog : Program.t) ~(dynamic : Label.map) :
    Precision.report =
  Precision.make ?constprop:r.constprop ~provenance:r.provenance prog
    ~static:r.labels ~dynamic
