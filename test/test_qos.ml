(* Transaction QoS: deadlines, retry budgets, overload shedding and
   the stuck-transaction watchdog.

   Everything here runs with generous time bounds: the CI container
   may have a single core, so a "deadline" test can only assert
   ordering facts (timed out vs committed, effects absent vs present),
   never tight latencies. *)

open Util

let spin_until_mono t_end =
  while Clock.now_mono () < t_end do
    Domain.cpu_relax ()
  done

(* -- Deadlines ------------------------------------------------------- *)

(* The body outlives its deadline, so the attempt reaches commit
   validation already expired: the episode must resolve to [Timed_out]
   with no published effects, in every protocol mode. *)
let test_deadline_expires_mid_attempt () =
  List.iter
    (fun (mode_name, cfg) ->
      let r = Tvar.make 0 in
      let before = Stats.read () in
      let deadline = Clock.now_mono () +. 2e-3 in
      let outcome =
        Stm.atomic ~config:cfg ~deadline (fun txn ->
            Stm.write txn r 1;
            (* Overrun the deadline inside the attempt: the commit-time
               deadline check, not the pre-attempt one, must catch it. *)
            spin_until_mono (deadline +. 2e-3))
      in
      check cs (mode_name ^ ": outcome") "timed-out" (Stm.Outcome.name outcome);
      check ci
        (mode_name ^ ": no write published")
        0
        (Stm.atomically (fun txn -> Stm.read txn r));
      let d = Stats.diff before (Stats.read ()) in
      check cb (mode_name ^ ": episode counted once") true (d.Stats.timeouts >= 1);
      Stm.descriptor_pool_check ())
    all_modes

let test_deadline_already_past () =
  let r = Tvar.make 0 in
  let ran = ref false in
  let outcome =
    Stm.atomic ~deadline:(Clock.now_mono () -. 1.0) (fun txn ->
        ran := true;
        Stm.write txn r 1)
  in
  check cs "outcome" "timed-out" (Stm.Outcome.name outcome);
  check cb "body never ran" false !ran;
  check ci "no effect" 0 (Stm.atomically (fun txn -> Stm.read txn r))

(* A deadline far in the future must not disturb a normal commit. *)
let test_deadline_roomy_commits () =
  List.iter
    (fun (mode_name, cfg) ->
      let r = Tvar.make 0 in
      let outcome =
        Stm.atomic ~config:cfg
          ~deadline:(Clock.now_mono () +. 60.0)
          (fun txn ->
            Stm.write txn r 41;
            Stm.read txn r + 1)
      in
      (match outcome with
      | Stm.Outcome.Committed v -> check ci (mode_name ^ ": result") 42 v
      | o -> Alcotest.failf "%s: expected commit, got %s" mode_name
               (Stm.Outcome.name o));
      check ci (mode_name ^ ": published") 41
        (Stm.atomically (fun txn -> Stm.read txn r)))
    all_modes

(* -- Retry budgets --------------------------------------------------- *)

(* A body that restarts forever, bounded by [max_attempts]: the episode
   returns [Budget_exhausted] cleanly after exactly that many attempts,
   with no write-set effects and no pool residue. *)
let test_budget_exhausted_clean () =
  List.iter
    (fun (mode_name, cfg) ->
      let r = Tvar.make 0 in
      let before = Stats.read () in
      let outcome =
        Stm.atomic ~config:cfg ~max_attempts:5 (fun txn ->
            Stm.write txn r 99;
            Stm.restart txn)
      in
      check cs (mode_name ^ ": outcome") "budget-exhausted"
        (Stm.Outcome.name outcome);
      let d = Stats.diff before (Stats.read ()) in
      check ci (mode_name ^ ": exactly budget attempts") 5 d.Stats.starts;
      check ci (mode_name ^ ": episode counted once") 1 d.Stats.budget_exhausted;
      check ci
        (mode_name ^ ": no write published")
        0
        (Stm.atomically (fun txn -> Stm.read txn r));
      Stm.descriptor_pool_check ())
    all_modes

(* [config.max_attempts] ([Too_many_attempts]) is independent of the
   QoS budget and keeps its exception semantics. *)
let test_budget_independent_of_too_many_attempts () =
  let cfg =
    { (Stm.get_default_config ()) with Stm.max_attempts = 3;
      Stm.serial_fallback = false }
  in
  match Stm.atomic ~config:cfg (fun txn -> Stm.restart txn) with
  | (_ : unit Stm.Outcome.t) -> Alcotest.fail "expected Too_many_attempts"
  | exception Stm.Too_many_attempts _ -> ()

(* -- Shedding: the one-rung ladder ------------------------------------ *)

let degrade_above = 0.7
let recover_below = 0.4

(* The shedder's Normal/Degraded machine: the brownout ladder with one
   rung and dwell 1. *)
let rung =
  {
    Qos.Brownout.Ladder.enter_above = degrade_above;
    exit_below = recover_below;
    dwell = 1;
    max_level = Qos.Brownout.Route_ro;
  }

let rung_step st rate = Qos.Brownout.Ladder.step rung st ~pressure:rate
let is_degraded st = st.Qos.Brownout.Ladder.level <> Qos.Brownout.Normal
let normal = Qos.Brownout.Ladder.initial
let degraded = { normal with Qos.Brownout.Ladder.level = Qos.Brownout.Route_ro }

(* The two-state reference the shedder must match sample for sample. *)
let reference_step was_degraded rate =
  if was_degraded then not (rate < recover_below) else rate > degrade_above

let hysteresis_tests =
  [
    qcheck ~count:500 "dead-band rates never flip the state"
      QCheck2.Gen.(list_size (int_range 1 50) (float_range recover_below degrade_above))
      (fun rates ->
        List.for_all
          (fun st ->
            List.for_all
              (fun rate ->
                let st', transitioned = rung_step st rate in
                is_degraded st' = is_degraded st && not transitioned)
              rates)
          [ normal; degraded ]);
    qcheck ~count:500 "step is a pure function of (state, rate)"
      QCheck2.Gen.(pair bool (float_range 0.0 1.0))
      (fun (start_degraded, rate) ->
        let st = if start_degraded then degraded else normal in
        rung_step st rate = rung_step st rate);
    qcheck ~count:500 "transitions only at threshold crossings"
      QCheck2.Gen.(list_size (int_range 1 100) (float_range 0.0 1.0))
      (fun rates ->
        let final, transitions =
          List.fold_left
            (fun (st, n) rate ->
              let st', t = rung_step st rate in
              (* A reported transition must actually change the state,
                 and be justified by the rate. *)
              if t then begin
                assert (is_degraded st' <> is_degraded st);
                if is_degraded st' then assert (rate > degrade_above)
                else assert (rate < recover_below)
              end
              else assert (is_degraded st' = is_degraded st);
              (st', n + if t then 1 else 0))
            (normal, 0) rates
        in
        (* Ending Degraded requires an odd transition count, Normal even. *)
        if is_degraded final then transitions mod 2 = 1
        else transitions mod 2 = 0);
  ]

(* The shedder itself, driven through [inject_sample], against the
   reference model. *)
let shedder_model_test =
  qcheck ~count:200 "shedder matches the two-state reference model"
    QCheck2.Gen.(list_size (int_range 1 60) (float_range 0.0 1.0))
    (fun rates ->
      (* alpha = 1: the EWMA is the newest sample, so the shedder's
         state is a function of the raw rate sequence. *)
      Qos.Shedder.enable
        ~config:
          {
            Qos.Shedder.default_config with
            Qos.Shedder.sample_window = 3600.0;
            alpha = 1.0;
            degrade_above;
            recover_below;
          }
        ();
      Fun.protect ~finally:Qos.Shedder.disable @@ fun () ->
      let before = Stats.read () in
      let observed =
        List.map
          (fun rate ->
            Qos.Shedder.inject_sample rate;
            Qos.Shedder.degraded ())
          rates
      in
      let _, expected, flips =
        List.fold_left
          (fun (d, acc, n) rate ->
            let d' = reference_step d rate in
            (d', d' :: acc, if d' <> d then n + 1 else n))
          (false, [], 0) rates
      in
      observed = List.rev expected
      && (Stats.diff before (Stats.read ())).Stats.degraded_transitions
         = flips)

(* -- Brownout ladder: pure state-machine properties ------------------- *)

let ladder_cfg =
  {
    Qos.Brownout.Ladder.enter_above = 1.0;
    exit_below = 0.4;
    dwell = 2;
    max_level = Qos.Brownout.Shed_gold;
  }

let run_ladder cfg samples =
  List.fold_left
    (fun (st, trace) p ->
      let st', changed = Qos.Brownout.Ladder.step cfg st ~pressure:p in
      (st', (st'.Qos.Brownout.Ladder.level, changed) :: trace))
    (Qos.Brownout.Ladder.initial, [])
    samples

let ladder_tests =
  let open Qos.Brownout in
  [
    qcheck ~count:500 "dead-band pressure never moves the ladder"
      QCheck2.Gen.(
        list_size (int_range 1 50)
          (float_range ladder_cfg.Ladder.exit_below
             ladder_cfg.Ladder.enter_above))
      (fun samples ->
        let final, trace = run_ladder ladder_cfg samples in
        final.Ladder.level = Normal
        && List.for_all (fun (_, changed) -> not changed) trace);
    qcheck ~count:500 "the ladder moves one level at a time"
      QCheck2.Gen.(list_size (int_range 1 80) (float_range 0.0 3.0))
      (fun samples ->
        let _, trace = run_ladder ladder_cfg samples in
        let levels = Normal :: List.rev_map fst trace in
        let rec ok = function
          | a :: (b :: _ as rest) ->
              abs (level_index a - level_index b) <= 1 && ok rest
          | _ -> true
        in
        ok levels);
    qcheck ~count:500 "max_level caps escalation"
      QCheck2.Gen.(
        pair (int_range 0 3) (list_size (int_range 1 80) (float_range 0.0 3.0)))
      (fun (cap, samples) ->
        let cfg = { ladder_cfg with Ladder.max_level = level_of_index cap } in
        let _, trace = run_ladder cfg samples in
        List.for_all (fun (l, _) -> level_index l <= cap) trace);
    qcheck ~count:500 "fewer than dwell high samples never escalate"
      QCheck2.Gen.(int_range 2 6)
      (fun dwell ->
        let cfg = { ladder_cfg with Ladder.dwell } in
        (* dwell-1 high samples, a dead-band reset, repeated: the
           streak can never complete. *)
        let burst = List.init (dwell - 1) (fun _ -> 2.0) @ [ 0.7 ] in
        let samples = List.concat (List.init 10 (fun _ -> burst)) in
        let final, trace = run_ladder cfg samples in
        final.Ladder.level = Normal
        && List.for_all (fun (_, changed) -> not changed) trace);
    qcheck ~count:200 "sustained calm always walks back to Normal"
      QCheck2.Gen.(list_size (int_range 1 40) (float_range 0.0 3.0))
      (fun noise ->
        let calm = List.init (4 * 2 * 5) (fun _ -> 0.1) in
        let final, _ = run_ladder ladder_cfg (noise @ calm) in
        final.Ladder.level = Normal);
  ]

(* -- Per-tenant QoS: token bucket and EWMAs --------------------------- *)

let test_tenant_token_bucket () =
  (* Microscopic refill: over the test's lifetime the bucket earns no
     meaningful tokens back, so admission is exactly the burst. *)
  let t =
    Qos.Tenant.make
      ~config:
        { Qos.Tenant.default_config with rate = 1e-6; burst = 8.0 }
      ~name:"capped" ~klass:Qos.Tenant.Bronze ()
  in
  let admitted = ref 0 in
  for _ = 1 to 20 do
    if Qos.Tenant.admit t then incr admitted
  done;
  check ci "admits exactly the burst" 8 !admitted;
  let s = Qos.Tenant.stats t in
  check ci "every arrival counted" 20 s.Qos.Tenant.s_arrivals;
  check ci "admitted counter agrees" 8 s.Qos.Tenant.s_admitted;
  (* Uncapped config: admission never refuses. *)
  let u =
    Qos.Tenant.make
      ~config:{ Qos.Tenant.default_config with rate = 0.0 }
      ~name:"uncapped" ~klass:Qos.Tenant.Gold ()
  in
  for _ = 1 to 100 do
    check cb "uncapped admits" true (Qos.Tenant.admit u)
  done

let test_tenant_ewmas () =
  let t =
    Qos.Tenant.make
      ~config:{ Qos.Tenant.default_config with alpha = 0.5 }
      ~name:"ewma" ~klass:Qos.Tenant.Gold ()
  in
  check cb "no sample yet" true (Qos.Tenant.abort_ewma t = None);
  check cb "not read-dominated before any sample" false
    (Qos.Tenant.read_dominated t);
  (* Clean read-only commits: abort EWMA at zero, read fraction at
     one, tenant read-dominated. *)
  for _ = 1 to 10 do
    Qos.Tenant.note_outcome t Qos.Tenant.Committed ~read:true ~aborts:0
  done;
  check cb "clean commits keep abort EWMA at zero" true
    (Qos.Tenant.abort_ewma t = Some 0.0);
  check cb "pure reads read-dominate" true (Qos.Tenant.read_dominated t);
  (* A thrashing streak drags the abort EWMA up and the write mix
     breaks read domination. *)
  for _ = 1 to 10 do
    Qos.Tenant.note_outcome t Qos.Tenant.Timed_out ~read:false ~aborts:3
  done;
  (match Qos.Tenant.abort_ewma t with
  | Some e when e > 0.9 -> ()
  | e ->
      Alcotest.failf "abort EWMA %.3f after a thrash streak"
        (Option.value e ~default:(-1.0)));
  check cb "write thrash ends read domination" false
    (Qos.Tenant.read_dominated t);
  let s = Qos.Tenant.stats t in
  check ci "commits counted" 10 s.Qos.Tenant.s_committed;
  check ci "timeouts counted" 10 s.Qos.Tenant.s_timed_out;
  check ci "aborts accumulated" 30 s.Qos.Tenant.s_aborts

(* -- Brownout controller: escalation, recovery, routing --------------- *)

let pinned_brownout ?(max_level = Qos.Brownout.Shed_gold) () =
  Qos.Brownout.make
    ~config:
      {
        Qos.Brownout.default_config with
        ladder =
          { Qos.Brownout.Ladder.default_config with dwell = 1; max_level };
      }
    ()

let test_brownout_escalation_and_peak () =
  let open Qos.Brownout in
  let b = pinned_brownout () in
  check cb "starts Normal" true (level b = Normal);
  check cb "no pressure yet" true (pressure b = None);
  inject_pressure b 2.0;
  check cb "one high sample: Route_ro" true (level b = Route_ro);
  inject_pressure b 2.0;
  inject_pressure b 2.0;
  check cb "escalated to Shed_gold" true (level b = Shed_gold);
  check ci "three transitions" 3 (transitions b);
  inject_pressure b 0.1;
  inject_pressure b 0.1;
  inject_pressure b 0.1;
  check cb "calm walks back to Normal" true (level b = Normal);
  check cb "peak remembers the worst" true (peak_level b = Shed_gold);
  check ci "six transitions total" 6 (transitions b)

let test_brownout_plan_routing () =
  let open Qos.Brownout in
  let b = pinned_brownout ~max_level:Shed_bronze () in
  let mk klass name =
    Qos.Tenant.make ~name ~klass
      ~config:{ Qos.Tenant.default_config with alpha = 0.5 }
      ()
  in
  let gold = mk Qos.Tenant.Gold "g" and bronze = mk Qos.Tenant.Bronze "b" in
  (* Make gold read-dominated, bronze write-heavy. *)
  for _ = 1 to 8 do
    Qos.Tenant.note_outcome gold Qos.Tenant.Committed ~read:true ~aborts:0;
    Qos.Tenant.note_outcome bronze Qos.Tenant.Committed ~read:false ~aborts:0
  done;
  check cb "Normal admits everyone" true
    (plan b gold ~read_txn:true = Admit && plan b bronze ~read_txn:false = Admit);
  inject_pressure b 2.0;
  check cb "Route_ro sends read-dominated reads to the RO path" true
    (plan b gold ~read_txn:true = Admit_ro);
  check cb "Route_ro: gold writes keep the normal path" true
    (plan b gold ~read_txn:false = Admit);
  check cb "Route_ro: write-heavy bronze unrouted" true
    (plan b bronze ~read_txn:false = Admit);
  inject_pressure b 2.0;
  check cb "Shed_bronze sheds bronze" true (plan b bronze ~read_txn:false = Shed);
  check cb "Shed_bronze keeps serving gold (RO)" true
    (plan b gold ~read_txn:true = Admit_ro);
  check cb "Shed_bronze keeps serving gold (writes)" true
    (plan b gold ~read_txn:false = Admit);
  (* Capped at Shed_bronze: more pressure cannot reach Shed_gold. *)
  inject_pressure b 2.0;
  inject_pressure b 2.0;
  check cb "max_level holds at Shed_bronze" true (level b = Shed_bronze);
  check cb "gold still served at the cap" true
    (plan b gold ~read_txn:false = Admit)

(* -- Shedding: admission behaviour ----------------------------------- *)

let test_shed_outcome () =
  let before = Stats.read () in
  (* Sampling window far in the future so only [inject_sample] moves
     the EWMA; zero refill so Degraded admits exactly the burst. *)
  Qos.Shedder.enable
    ~config:
      {
        Qos.Shedder.default_config with
        Qos.Shedder.sample_window = 3600.0;
        bucket_capacity = 2.0;
        refill_per_s = 0.0;
      }
    ();
  Fun.protect ~finally:Qos.Shedder.disable @@ fun () ->
  check cb "starts Normal" false (Qos.Shedder.degraded ());
  let r = Tvar.make 0 in
  let go () = Stm.atomic (fun txn -> Stm.write txn r (Stm.read txn r + 1)) in
  (match go () with
  | Stm.Outcome.Committed () -> ()
  | o -> Alcotest.failf "normal-state admit failed: %s" (Stm.Outcome.name o));
  Qos.Shedder.inject_sample 0.95;
  check cb "degraded after overload sample" true (Qos.Shedder.degraded ());
  (* Burst of 2 tokens, then the door closes. *)
  let outcomes = List.init 4 (fun _ -> go ()) in
  let sheds =
    List.length (List.filter (fun o -> o = Stm.Outcome.Shed) outcomes)
  in
  check ci "admissions beyond the bucket are shed" 2 sheds;
  (* Recovery samples drain the EWMA below the floor and reopen. *)
  for _ = 1 to 20 do
    Qos.Shedder.inject_sample 0.0
  done;
  check cb "recovered" false (Qos.Shedder.degraded ());
  (match go () with
  | Stm.Outcome.Committed () -> ()
  | o -> Alcotest.failf "recovered admit failed: %s" (Stm.Outcome.name o));
  let d = Stats.diff before (Stats.read ()) in
  check ci "shed episodes counted" 2 d.Stats.shed;
  check ci "two state transitions" 2 d.Stats.degraded_transitions;
  (* Gauges published for the dashboard. *)
  check copt_i "qos_state gauge back to normal" (Some 0)
    (Proust_obs.Metrics.gauge "qos_state")

(* [atomically] (no QoS envelope) ignores the shedder entirely. *)
let test_shedder_never_blocks_atomically () =
  Qos.Shedder.enable
    ~config:
      {
        Qos.Shedder.default_config with
        Qos.Shedder.sample_window = 3600.0;
        bucket_capacity = 0.0;
        refill_per_s = 0.0;
      }
    ();
  Fun.protect ~finally:Qos.Shedder.disable @@ fun () ->
  Qos.Shedder.inject_sample 1.0;
  let r = Tvar.make 0 in
  Stm.atomically (fun txn -> Stm.write txn r 7);
  check ci "atomically committed under full shed" 7
    (Stm.atomically (fun txn -> Stm.read txn r))

(* [disable] must leave nothing degraded behind: admission is open
   again, so the state and the dashboard gauge must say Normal. *)
let test_shedder_disable_resets () =
  Qos.Shedder.enable
    ~config:{ Qos.Shedder.default_config with Qos.Shedder.sample_window = 3600.0 }
    ();
  Qos.Shedder.inject_sample 0.95;
  check cb "degraded before disable" true (Qos.Shedder.degraded ());
  Qos.Shedder.disable ();
  check cb "disable resets to Normal" false (Qos.Shedder.degraded ());
  check copt_i "qos_state gauge back to normal" (Some 0)
    (Proust_obs.Metrics.gauge "qos_state")

(* -- Watchdog -------------------------------------------------------- *)

let wd_config =
  {
    Qos.Watchdog.interval = 2e-3;
    p99_multiple = 1e-6;
    (* vanishingly small multiple: the [min_age] floor is the whole
       threshold, so the test does not depend on histogram state left
       by other suites (the threshold is [max floor (p99 * multiple)],
       so a *large* multiple would couple it to leftover samples) *)
    min_age = 15e-3;
    breaker_multiple = 4.0;
  }

(* A transaction wedged by chaos ([Fault.Wedge] spins until its own
   descriptor is killed) can only finish if the watchdog unwedges it. *)
let test_watchdog_kills_wedged () =
  with_seed_note @@ fun () ->
  let kills0 = Qos.Watchdog.kills () in
  let before = Stats.read () in
  let wd = Qos.Watchdog.start ~config:wd_config () in
  Fun.protect
    ~finally:(fun () ->
      Fault.disable ();
      Qos.Watchdog.stop wd)
    (fun () ->
      Fault.configure ~seed:(sub_seed 71)
        [ (Fault.Pre_commit, { Fault.prob = 1.0; actions = [ Fault.Wedge ] }) ];
      let r = Tvar.make 0 in
      let worker =
        Domain.spawn (fun () ->
            Stm.atomically (fun txn -> Stm.write txn r (Stm.read txn r + 1)))
      in
      (* Wait for the watchdog to kill the wedged attempt, then stop
         re-wedging so the retry can commit. *)
      let t_give_up = Clock.now_mono () +. 20.0 in
      while Qos.Watchdog.kills () = kills0 && Clock.now_mono () < t_give_up do
        Unix.sleepf 2e-3
      done;
      Fault.disable ();
      Domain.join worker;
      check cb "watchdog killed the wedged attempt" true
        (Qos.Watchdog.kills () > kills0);
      let d = Stats.diff before (Stats.read ()) in
      check cb "kill surfaced in stats" true (d.Stats.watchdog_kills >= 1);
      check ci "transaction retried and committed" 1
        (Stm.atomically (fun txn -> Stm.read txn r)))

(* A healthy irrevocable (serial-fallback) transaction may far outlive
   the threshold: [Txn_desc.try_kill] refuses irrevocable descriptors,
   so the watchdog must never kill it. *)
let test_watchdog_spares_irrevocable () =
  let kills0 = Qos.Watchdog.kills () in
  let wd = Qos.Watchdog.start ~config:wd_config () in
  Fun.protect
    ~finally:(fun () -> Qos.Watchdog.stop wd)
    (fun () ->
      (* fallback_after = 0: the very first attempt runs irrevocably. *)
      let cfg = { (Stm.get_default_config ()) with Stm.fallback_after = 0 } in
      let r = Tvar.make 0 in
      Stm.atomically ~config:cfg (fun txn ->
          Stm.write txn r 1;
          (* Outlive several watchdog thresholds inside the attempt. *)
          spin_until_mono (Clock.now_mono () +. (4.0 *. wd_config.Qos.Watchdog.min_age)));
      check ci "irrevocable attempt committed" 1
        (Stm.atomically (fun txn -> Stm.read txn r));
      check ci "no watchdog kill of the irrevocable attempt" kills0
        (Qos.Watchdog.kills ()))

(* Escalation rung 2: a Serial_commit gate holder stuck *after* its
   linearization point (status Committed, so [try_kill] cannot touch
   it) convoys the whole system on the gate.  The watchdog breaks the
   gate by force once the holder ages past [breaker_multiple]
   thresholds. *)
let test_watchdog_breaks_stuck_gate () =
  let breaks0 = Qos.Watchdog.breaks () in
  let wd = Qos.Watchdog.start ~config:wd_config () in
  Fun.protect
    ~finally:(fun () -> Qos.Watchdog.stop wd)
    (fun () ->
      let r = Tvar.make 0 in
      Stm.atomically ~config:serial_cfg (fun txn ->
          Stm.write txn r 5;
          (* Runs in the locked phase, while this commit holds the
             serial gate: spin until some remote party frees it.  Only
             the watchdog's breaker can. *)
          Stm.on_commit_locked txn (fun () ->
              let t_give_up = Clock.now_mono () +. 20.0 in
              while
                Atomic.get Txn_state.commit_gate <> 0
                && Clock.now_mono () < t_give_up
              do
                Domain.cpu_relax ()
              done));
      check cb "gate was broken" true (Qos.Watchdog.breaks () > breaks0);
      check ci "commit still published" 5
        (Stm.atomically (fun txn -> Stm.read txn r)))

let suite =
  [
    test "deadline expires mid-attempt (all modes)"
      test_deadline_expires_mid_attempt;
    test "deadline already past: body never runs" test_deadline_already_past;
    test "roomy deadline commits normally" test_deadline_roomy_commits;
    test "retry budget exhausts cleanly (all modes)" test_budget_exhausted_clean;
    test "budget independent of Too_many_attempts"
      test_budget_independent_of_too_many_attempts;
    test "shed outcome and hysteresis recovery" test_shed_outcome;
    test "shedder never blocks atomically" test_shedder_never_blocks_atomically;
    slow "watchdog kills a wedged transaction" test_watchdog_kills_wedged;
    slow "watchdog spares irrevocable attempts" test_watchdog_spares_irrevocable;
    slow "watchdog breaks a stuck serial gate" test_watchdog_breaks_stuck_gate;
    test "tenant token bucket admits the burst" test_tenant_token_bucket;
    test "tenant EWMAs track aborts and read mix" test_tenant_ewmas;
    test "brownout escalates, recovers, remembers the peak"
      test_brownout_escalation_and_peak;
    test "brownout plan routes by class and read mix"
      test_brownout_plan_routing;
  ]
  @ hysteresis_tests @ ladder_tests
  @ [
      test "shedder disable resets to Normal" test_shedder_disable_resets;
      shedder_model_test;
    ]
