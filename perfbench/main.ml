(* perfbench: one benchmark for the whole stack, four workloads.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Sets the workload up several times (setup_s is the median), then
   measures it.  With --trace 0 it reports the end-to-end metrics of an
   untraced run.  With --trace 1 it runs untraced for half the time and
   traced for the other half: the per-layer metrics come from the traced
   half, the difference in throughput between the halves is the tracing
   overhead, and the traced spans are written to perfbench/out as a
   Chrome trace_event file.  The last line of standard output is one JSON
   object; perfbench/run.py turns it into the benchmark's result. *)

module P = Probe
module J = Proust_obs.Json

module type WORKLOAD = sig
  type t

  val setup : seed:int -> dir:string -> t
  val discard : t -> unit
  val run : t -> seconds:int -> traced:bool -> poll:(unit -> unit) -> P.phase

  (* Checks over the final state, and metrics measured after the run. *)
  val finish : t -> string list * P.metric list
end

let workloads : (string * (module WORKLOAD)) list =
  [
    ("map-txn", (module Map_txn.Eager_eager));
    ("durable-commit", (module Durable_commit));
    ("open-brownout", (module Open_brownout));
    ("chan-pipeline", (module Chan_pipeline));
    (* Not a benchmark workload: reproduces a library defect, see map_txn.ml. *)
    ("map-txn-lazy-lazy", (module Map_txn.Lazy_lazy));
  ]

(* Set-ups per run: at least [setup_reps], and more until [setup_budget_s]
   is spent, so a set-up of a few milliseconds is timed often enough that
   its median does not follow one slow repetition. *)
let setup_reps = 5
let setup_budget_s = 1.0
let max_setup_reps = 200

let trace_json ~workload ~table (spans : P.span list) =
  let t0 = List.fold_left (fun a (s : P.span) -> min a s.ts) max_int spans in
  let us ns = J.Float (float_of_int ns /. 1000.) in
  let tids = List.sort_uniq compare (List.map (fun (s : P.span) -> s.tid) spans) in
  let thread_name tid =
    J.Obj
      [
        ("ph", J.String "M");
        ("name", J.String "thread_name");
        ("pid", J.Int 1);
        ("tid", J.Int tid);
        ( "args",
          J.Obj
            [
              ( "name",
                J.String
                  (if tid >= 100 then Printf.sprintf "gc ring %d" (tid - 100)
                   else Printf.sprintf "domain %d" tid) );
            ] );
      ]
  in
  let event (s : P.span) =
    J.Obj
      [
        ("name", J.String s.P.name);
        ("cat", J.String s.P.cat);
        ("ph", J.String "X");
        ("pid", J.Int 1);
        ("tid", J.Int s.P.tid);
        ("ts", us (s.P.ts - t0));
        ("dur", us s.P.dur);
        ("args", J.Obj [ ("txn", J.Int s.P.id) ]);
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map thread_name tids @ List.map event spans));
      ("displayTimeUnit", J.String "ns");
      ( "otherData",
        J.Obj
          [
            ("workload", J.String workload);
            ( "self_time",
              J.List
                (List.map
                   (fun (layer, ns, share) ->
                     J.Obj
                       [
                         ("layer", J.String layer);
                         ("self_ms", J.Float (float_of_int ns /. 1e6));
                         ("share_pct", J.Float share);
                       ])
                   table) );
          ] );
    ]

let main ~workload ~seed ~seconds ~trace ~dir =
  let (module W : WORKLOAD) =
    match List.assoc_opt workload workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s (known: %s)\n" workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let times = ref [] and reps = ref 0 and spent = ref 0. in
  let st = ref None in
  while !reps < setup_reps || (!spent < setup_budget_s && !reps < max_setup_reps) do
    Option.iter W.discard !st;
    Gc.full_major ();
    let t = P.now () in
    st := Some (W.setup ~seed ~dir);
    let d = float_of_int (P.now () - t) /. 1e9 in
    times := d :: !times;
    spent := !spent +. d;
    incr reps
  done;
  let st = Option.get !st in
  Gc.full_major ();
  let setup_s =
    P.m ~note:(Printf.sprintf "median of %d set-ups" !reps) "setup_s" (P.median_float !times)
  in
  let phases, metrics, trace_file =
    if not trace then
      let p = W.run st ~seconds ~traced:false ~poll:ignore in
      ([ p ], p.P.metrics, None)
    else begin
      let half = max 1 (seconds / 2) in
      let p0 = W.run st ~seconds:half ~traced:false ~poll:ignore in
      let gw = Gcwatch.start () in
      let p1 = W.run st ~seconds:half ~traced:true ~poll:(fun () -> Gcwatch.poll gw) in
      Gcwatch.poll gw;
      let table = P.self_table p1.P.ctxs in
      List.iter
        (fun (layer, ns, share) ->
          Printf.printf "self-time %-8s %12.3f ms %6.2f %%\n" layer (float_of_int ns /. 1e6) share)
        table;
      let spans = List.concat_map (fun c -> c.P.spans) p1.P.ctxs @ !(gw.Gcwatch.spans) in
      let file = Filename.concat dir (Printf.sprintf "trace-%s-%d.json" workload seed) in
      J.write_file file (trace_json ~workload ~table spans);
      (* End-to-end details come from the untraced half, layer metrics
         from the traced one. *)
      let untraced (m : P.metric) = String.starts_with ~prefix:"txn." m.name in
      let metrics =
        List.filter untraced p0.P.metrics
        @ List.filter (fun m -> not (untraced m)) p1.P.metrics
        @ Gcwatch.metrics gw
        @ [
            P.m
              ~note:(Printf.sprintf "untraced %.1f/s, traced %.1f/s" p0.P.rate p1.P.rate)
              "trace.overhead_pct"
              ((p0.P.rate /. p1.P.rate -. 1.) *. 100.);
            P.m "trace.spans" (float_of_int (List.length spans));
            P.m "run.failed_frac"
              (P.ratio (p0.P.failed + p1.P.failed) (p0.P.attempted + p1.P.attempted));
          ]
        @ List.map (fun (layer, _, share) -> P.m ("self." ^ layer ^ "_pct") share) table
      in
      ([ p0; p1 ], metrics, Some file)
    end
  in
  let problems, finish_metrics = W.finish st in
  let sum f = List.fold_left (fun a p -> a + f p) 0 phases in
  let problems = List.concat_map (fun p -> p.P.problems) phases @ problems in
  let metrics = (setup_s :: metrics) @ finish_metrics in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (problems = []));
            ("attempted", J.Int (sum (fun p -> p.P.attempted)));
            ("failed", J.Int (sum (fun p -> p.P.failed)));
            ("problems", J.List (List.map (fun s -> J.String s) problems));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (m : P.metric) -> (m.name, J.Obj [ ("value", J.Float m.P.value); ("note", J.String m.P.note) ]))
                   metrics) );
            ( "host",
              J.Obj
                [
                  ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
                  ("ocaml", J.String Sys.ocaml_version);
                ] );
            ("trace_file", match trace_file with Some f -> J.String f | None -> J.Null);
          ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  main ~workload:!workload ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1) ~dir:"perfbench/out"
