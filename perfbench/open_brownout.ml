(* open-brownout: admission, queueing and MVCC snapshot reads.  An open
   loop through Open_runner.run against omap-snap (a persistent AVL
   behind one tvar) holding 10^6 keys, under Multi_version, with the
   brownout controller on.  A gold tenant sends Poisson read-mostly
   traffic over Zipf keys beside a bronze tenant sending bursty
   write-heavy traffic at a hot set.  Rates are fixed here, not
   calibrated per run, and both tenants' loads stay under the service
   pool's capacity, so no request is shed or times out: the brownout
   ladder is capped at routing gold reads onto the abort-free snapshot
   path.  Gold latency is charged from each request's intended
   arrival. *)

module P = Probe
module T = Proust_structures.Trait
module W = Proust_workload
module O = Proust_workload.Open_runner

let keys = 1_000_000
let prefill_batch = 10_000
(* Dense enough that the service domain spins between arrivals rather
   than sleeping: a timer wake-up on a shared host costs more than a
   request, and would land in the latency. *)
let gold_rate = 6000.
let deadline = 1.0

let bronze_process =
  W.Arrivals.Bursty { rate_on = 6000.; rate_off = 500.; mean_on = 0.02; mean_off = 0.06 }

type t = {
  config : Stm.config;
  seed : int;
  ops : (int, int) T.Map.ops;
  mutable runs : int;  (* Open_runner.run calls so far, for their seeds *)
}

let setup ~seed ~dir:_ =
  let config = { (Stm.get_default_config ()) with mode = Stm.Multi_version } in
  let ops = Proust_structures.P_snap_omap.map_ops (Proust_structures.P_snap_omap.make ()) in
  let st = Random.State.make [| seed |] in
  for b = 0 to (keys / prefill_batch) - 1 do
    Stm.atomically ~config (fun txn ->
        for k = b * prefill_batch to ((b + 1) * prefill_batch) - 1 do
          ignore (ops.T.Map.put txn k (Random.State.int st 1_000_000))
        done)
  done;
  { config; seed; ops; runs = 0 }

let discard _ = ()

let tenants () =
  [
    O.tenant_spec ~name:"gold" ~klass:Qos.Tenant.Gold
      ~dist:(W.Arrivals.Zipf { s = 0.9; scramble = true })
      ~keys ~write_fraction:0.05 ~ops_per_txn:2 ~deadline
      (W.Arrivals.Poisson { rate = gold_rate });
    O.tenant_spec ~name:"bronze" ~klass:Qos.Tenant.Bronze
      ~dist:(W.Arrivals.Hotset { hot = 1000; fraction = 0.9 })
      ~keys ~write_fraction:0.8 ~ops_per_txn:2 ~deadline bronze_process;
  ]

let brownout () =
  Qos.Brownout.make
    ~config:
      {
        Qos.Brownout.sample_window = 0.005;
        lag_budget = 0.002;
        alpha = 0.35;
        ladder =
          { Qos.Brownout.Ladder.default_config with dwell = 1; max_level = Qos.Brownout.Route_ro };
      }
    ()

(* The ops the service pool calls: timed per domain in the traced run,
   through a context each pool domain creates on first use. *)
let traced_ops ~seconds ops =
  let made = Mutex.create () and cs = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        Mutex.protect made (fun () ->
            let c = P.ctx ~seconds ~traced:true (List.length !cs) in
            c.P.on <- true;
            c.P.keep <- true;
            cs := c :: !cs;
            (c, P.timed_map c ops)))
  in
  let ops' =
    {
      ops with
      T.Map.get = (fun txn k -> (snd (Domain.DLS.get key)).T.Map.get txn k);
      put = (fun txn k v -> (snd (Domain.DLS.get key)).T.Map.put txn k v);
      remove = (fun txn k -> (snd (Domain.DLS.get key)).T.Map.remove txn k);
    }
  in
  (ops', fun () -> List.rev !cs)

(* Sub-runs of this length, each a fresh Open_runner.run with its own
   schedule: long enough for ten gold samples beyond the p999.  The
   latency figures are medians over sub-runs, so a stalled stretch of a
   shared host moves one sub-run, not the figure. *)
let subrun_s = 5

module H = Proust_obs.Histogram

let run st ~seconds ~traced ~poll =
  let ops, ctxs = if traced then traced_ops ~seconds st.ops else (st.ops, fun () -> []) in
  let meta = ops.T.Map.meta in
  let entry =
    { W.Registry.name = "omap-snap"; meta; config = W.Registry.config_for meta; target = W.Registry.Map (fun () -> ops) }
  in
  let k = max 1 (seconds / subrun_s) in
  let gc0 = Gc.quick_stat () in
  let peak = ref 0 in
  let rs =
    List.init k (fun _ ->
        st.runs <- st.runs + 1;
        let r =
          O.run ~seed:((st.seed * 1024) + st.runs) ~config:st.config ~brownout:(brownout ())
            ~prefill:0 ~warmup:0.5
            ~duration:(float_of_int seconds /. float_of_int k)
            ~entry (tenants ())
        in
        peak := max !peak (Gc.quick_stat ()).Gc.heap_words;
        r)
  in
  poll ();
  let gc1 = Gc.quick_stat () in
  let trs = List.concat_map (fun r -> r.O.o_tenants) rs in
  let of_class name = List.filter (fun tr -> tr.O.tr_name = name) trs in
  let total f l = List.fold_left (fun a tr -> a + f tr.O.tr_stats) 0 l in
  let arrivals = total (fun s -> s.Qos.Tenant.s_arrivals) trs in
  let committed = total (fun s -> s.Qos.Tenant.s_committed) trs in
  let broken =
    List.filter_map
      (fun tr ->
        let s = tr.O.tr_stats in
        let settled =
          s.Qos.Tenant.s_committed + s.Qos.Tenant.s_shed + s.Qos.Tenant.s_timed_out
          + s.Qos.Tenant.s_budget_exhausted
        in
        if settled = s.Qos.Tenant.s_arrivals then None
        else Some (Printf.sprintf "%s: %d arrivals but %d settled" tr.O.tr_name s.Qos.Tenant.s_arrivals settled))
      trs
  in
  (* A percentile of one class's latency histograms (the lower bound of
     the bucket holding the sample, within 1/16), median over sub-runs,
     when every sub-run holds ten samples beyond it. *)
  let hist ?(scale = 1e3) ?(service = false) name cls q =
    let hs =
      List.map
        (fun tr ->
          let l = Option.get tr.O.tr_latency in
          if service then l.Proust_obs.Metrics.service else l.Proust_obs.Metrics.intended)
        (of_class cls)
    in
    let pick (h : H.summary) =
      if q = 0.5 then h.H.p50 else if q = 0.9 then h.H.p90 else if q = 0.99 then h.H.p99 else h.H.p999
    in
    let least = List.fold_left (fun a (h : H.summary) -> min a h.H.count) max_int hs in
    let beyond = int_of_float (float_of_int least *. (1. -. q)) in
    if beyond >= 10 then
      P.m
        ~note:(Printf.sprintf "median of %d runs, n >= %d, %d beyond" k least beyond)
        name
        (P.median_float (List.map (fun h -> float_of_int (pick h) /. scale) hs))
    else P.m ~note:(Printf.sprintf "n >= %d, too few samples beyond" least) name 0.
  in
  let rate = float_of_int committed /. float_of_int seconds in
  let stat f = float_of_int (List.fold_left (fun a r -> a + f r.O.o_stats) 0 rs) in
  let cs = ctxs () in
  let layer =
    if not traced then []
    else
      let d f = P.dist_of cs f in
      let per_class name =
        let l = of_class name in
        let count f = float_of_int (total f l) in
        [
          hist ~scale:1e6 ("open." ^ name ^ ".intended_p99_ms") name 0.99;
          hist ~scale:1e6 ~service:true ("open." ^ name ^ ".service_p99_ms") name 0.99;
          P.m ("open." ^ name ^ ".max_lag_ms")
            (1000. *. List.fold_left (fun a tr -> Float.max a tr.O.tr_max_lag_s) 0. l);
          P.m ("open." ^ name ^ ".shed") (count (fun s -> s.Qos.Tenant.s_shed));
          P.m ("open." ^ name ^ ".timed_out") (count (fun s -> s.Qos.Tenant.s_timed_out));
          P.m ("open." ^ name ^ ".budget_exhausted") (count (fun s -> s.Qos.Tenant.s_budget_exhausted));
          P.m ("open." ^ name ^ ".ro_routed") (count (fun s -> s.Qos.Tenant.s_ro_routed));
        ]
      in
      [
        P.pct ~scale:1. "core.get_ns.p50" (d (fun c -> c.P.get_ns)) 0.5;
        P.pct ~scale:1. "core.get_ns.p99" (d (fun c -> c.P.get_ns)) 0.99;
        P.pct ~scale:1. "core.put_ns.p50" (d (fun c -> c.P.put_ns)) 0.5;
        P.pct ~scale:1. "core.put_ns.p99" (d (fun c -> c.P.put_ns)) 0.99;
        hist ~scale:1e6 "open.gold.intended_p999_ms" "gold" 0.999;
        P.m "open.gold.goodput_per_s"
          (float_of_int (total (fun s -> s.Qos.Tenant.s_committed) (of_class "gold")) /. float_of_int seconds);
      ]
      @ per_class "gold" @ per_class "bronze"
      @ [
          P.m "brownout.transitions"
            (float_of_int (List.fold_left (fun a r -> a + r.O.o_brownout_transitions) 0 rs));
          P.m "brownout.peak"
            (float_of_int
               (List.fold_left
                  (fun a r -> max a (Option.fold ~none:0 ~some:Qos.Brownout.level_index r.O.o_brownout_peak))
                  0 rs));
          P.m "stm.ro_commits" (stat (fun o -> o.Stats.ro_commits));
          P.m "stm.ro_aborts" (stat (fun o -> o.Stats.ro_aborts));
          P.m "stm.versions_gced" (stat (fun o -> o.Stats.versions_gced));
          P.m "stm.conflicts" (stat (fun o -> o.Stats.conflicts));
          P.m "stm.commit_ratio" (stat (fun o -> o.Stats.commits) /. Float.max 1. (stat (fun o -> o.Stats.starts)));
          P.m "gc.minor_words_per_txn"
            ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 committed));
          P.m "gc.promoted_words_per_txn"
            ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words) /. float_of_int (max 1 committed));
          P.m "gc.major_collections" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ]
  in
  {
    P.attempted = arrivals;
    failed = arrivals - committed;
    problems = broken;
    rate;
    metrics =
      [
        P.m ~note:"committed requests per second" "txn_per_s" rate;
        hist "p50_us" "gold" 0.5;
        hist "p90_us" "gold" 0.9;
        hist "txn.gold_p99_us" "gold" 0.99;
        P.m ~note:"after each sub-run" "peak_heap_mb" (P.words_to_mb !peak);
      ]
      @ layer;
    ctxs = cs;
  }

let finish _ = ([], [])
