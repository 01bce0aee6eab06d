(** Unit and concurrency tests for the STM substrate. *)

open Util

(* ------------------------------------------------------------------ *)
(* Basics                                                               *)

let test_read_write () =
  let r = Tvar.make 10 in
  let v = Stm.atomically (fun txn -> Stm.read txn r) in
  check ci "initial read" 10 v;
  Stm.atomically (fun txn -> Stm.write txn r 42);
  check ci "after write" 42 (Tvar.peek r)

let test_read_your_writes () =
  let r = Tvar.make 0 in
  let seen =
    Stm.atomically (fun txn ->
        Stm.write txn r 5;
        Stm.read txn r)
  in
  check ci "sees own write" 5 seen

let test_write_buffering () =
  (* Uncommitted writes are invisible outside the transaction. *)
  let r = Tvar.make 0 in
  Stm.atomically (fun txn ->
      Stm.write txn r 99;
      check ci "not yet published" 0 (Tvar.peek r));
  check ci "published after commit" 99 (Tvar.peek r)

let test_multiple_tvars () =
  let a = Tvar.make 1 and b = Tvar.make 2 in
  let sum =
    Stm.atomically (fun txn ->
        Stm.write txn a 10;
        Stm.write txn b 20;
        Stm.read txn a + Stm.read txn b)
  in
  check ci "sum in txn" 30 sum;
  check ci "a" 10 (Tvar.peek a);
  check ci "b" 20 (Tvar.peek b)

let test_abort_on_exception () =
  let r = Tvar.make 1 in
  (try
     Stm.atomically (fun txn ->
         Stm.write txn r 2;
         failwith "boom")
   with Failure _ -> ());
  check ci "write rolled back" 1 (Tvar.peek r)

let test_return_value () =
  let v = Stm.atomically (fun _ -> "result") in
  check cs "returns body value" "result" v

let test_ref_modify () =
  let r = Stm.Ref.make 10 in
  Stm.atomically (fun txn -> Stm.Ref.modify txn r (fun x -> x * 3));
  check ci "modify" 30 (Tvar.peek r)

(* ------------------------------------------------------------------ *)
(* Handler phases                                                       *)

let test_hook_order () =
  let log = ref [] in
  let push x () = log := x :: !log in
  Stm.atomically (fun txn ->
      Stm.on_commit_locked txn (push "locked1");
      Stm.after_commit txn (push "after1");
      Stm.on_commit_locked txn (push "locked2");
      Stm.after_commit txn (push "after2");
      Stm.on_abort txn (push "abort"));
  check Alcotest.(list string) "commit hooks FIFO, abort skipped"
    [ "locked1"; "locked2"; "after1"; "after2" ]
    (List.rev !log)

let test_abort_hooks_lifo () =
  let log = ref [] in
  let push x () = log := x :: !log in
  let tries = ref 0 in
  Stm.atomically (fun txn ->
      incr tries;
      if !tries = 1 then begin
        Stm.on_abort txn (push "first-registered");
        Stm.on_abort txn (push "second-registered");
        ignore (Stm.restart txn)
      end);
  check
    Alcotest.(list string)
    "abort hooks run in reverse registration order"
    [ "second-registered"; "first-registered" ]
    (List.rev !log);
  check ci "restart re-ran body" 2 !tries

let test_commit_hooks_not_run_on_abort () =
  let ran = ref false in
  let tries = ref 0 in
  Stm.atomically (fun txn ->
      incr tries;
      if !tries = 1 then begin
        Stm.on_commit_locked txn (fun () -> ran := true);
        Stm.after_commit txn (fun () -> ran := true);
        ignore (Stm.restart txn)
      end);
  check cb "commit hooks dropped by abort" false !ran

(* ------------------------------------------------------------------ *)
(* retry / or_else                                                      *)

let test_retry_wakes_on_change () =
  let flag = Tvar.make false in
  let d =
    Domain.spawn (fun () ->
        Stm.atomically (fun txn ->
            if not (Stm.read txn flag) then Stm.retry txn;
            "woke"))
  in
  Unix.sleepf 0.02;
  Stm.atomically (fun txn -> Stm.write txn flag true);
  check cs "retry woke" "woke" (Domain.join d)

(* A retry with nothing read can never be woken; the episode must fail
   with the typed [Retry_no_reads] (not block, not a bare [Failure]),
   and the pooled record must come back clean. *)
let test_retry_empty_read_set_fails () =
  (match Stm.atomically (fun txn -> Stm.retry txn) with
  | exception Stm.Retry_no_reads -> ()
  | _ -> Alcotest.fail "expected Retry_no_reads");
  Stm.descriptor_pool_check ()

(* A [retry] on the serial-irrevocable rung: with [fallback_after = 0]
   every attempt runs irrevocably, so the retrier holds the quiesce
   token when it retries.  It must hand the token back before parking
   — else the waking writer's commit is turned away forever — then wake,
   re-enter the fallback rung, commit, and leave a clean pool under the
   leak audit (which also fails on a token that outlives its episode). *)
let test_retry_in_fallback_rung () =
  let saved_mode = Stm.retry_mode () in
  Stm.set_retry_mode Stm.Park;
  Stm.set_leak_audit true;
  Fun.protect
    ~finally:(fun () ->
      Stm.set_leak_audit false;
      Stm.set_retry_mode saved_mode)
    (fun () ->
      let cfg = { lazy_cfg with Stm.fallback_after = 0 } in
      let flag = Tvar.make false in
      let attempts = Atomic.make 0 in
      let before = Stats.read () in
      let d =
        Domain.spawn (fun () ->
            let v =
              Stm.atomically ~config:cfg (fun txn ->
                  Atomic.incr attempts;
                  if not (Stm.read txn flag) then Stm.retry txn;
                  "woke")
            in
            Stm.descriptor_pool_check ();
            v)
      in
      let t0 = Unix.gettimeofday () in
      while Stm.parked_waiters () = 0 && Unix.gettimeofday () -. t0 < 5. do
        Unix.sleepf 1e-3
      done;
      check cb "retrier parked" true (Stm.parked_waiters () > 0);
      Stm.atomically ~config:lazy_cfg (fun txn -> Stm.write txn flag true);
      check cs "retrier woke and committed" "woke" (Domain.join d);
      let s = Stats.diff before (Stats.read ()) in
      check ci "two attempts" 2 (Atomic.get attempts);
      check ci "both attempts ran on the fallback rung" 2 s.Stats.fallbacks;
      check ci "one park" 1 s.Stats.parks;
      Stm.descriptor_pool_check ())

let test_or_else_first_branch () =
  let r = Tvar.make 1 in
  let v = Stm.atomically (fun txn -> Stm.or_else txn (fun _ -> 10) (fun _ -> 20)) in
  check ci "first branch" 10 v;
  ignore (Tvar.peek r)

let test_or_else_second_branch () =
  let v =
    Stm.atomically (fun txn ->
        Stm.or_else txn (fun txn ->
            let gate = Tvar.make false in
            if not (Stm.read txn gate) then Stm.retry txn;
            10)
          (fun _ -> 20))
  in
  check ci "second branch" 20 v

let test_or_else_rolls_back_first_branch_writes () =
  let a = Tvar.make 0 in
  Stm.atomically (fun txn ->
      Stm.or_else txn
        (fun txn ->
          Stm.write txn a 111;
          Stm.retry txn)
        (fun _ -> ()));
  check ci "first branch write discarded" 0 (Tvar.peek a)

let test_or_else_keeps_prior_writes () =
  let a = Tvar.make 0 and b = Tvar.make 0 in
  Stm.atomically (fun txn ->
      Stm.write txn a 1;
      Stm.or_else txn
        (fun txn ->
          Stm.write txn b 9;
          Stm.retry txn)
        (fun txn -> Stm.write txn b 2));
  check ci "pre-branch write kept" 1 (Tvar.peek a);
  check ci "second-branch write applied" 2 (Tvar.peek b)

(* ------------------------------------------------------------------ *)
(* Consistency                                                          *)

let test_no_fractured_reads () =
  (* Two tvars always updated together must always be read equal. *)
  let a = Tvar.make 0 and b = Tvar.make 0 in
  let stop = Atomic.make false in
  let violations = Atomic.make 0 in
  let writer () =
    for i = 1 to 2_000 do
      Stm.atomically (fun txn ->
          Stm.write txn a i;
          Stm.write txn b i)
    done;
    Atomic.set stop true
  in
  let reader () =
    while not (Atomic.get stop) do
      let x, y = Stm.atomically (fun txn -> (Stm.read txn a, Stm.read txn b)) in
      if x <> y then Atomic.incr violations
    done
  in
  let d1 = Domain.spawn writer and d2 = Domain.spawn reader in
  Domain.join d1;
  Domain.join d2;
  check ci "no fractured reads" 0 (Atomic.get violations)

let test_zombie_exception_retried () =
  (* A user exception raised from an inconsistent snapshot must retry,
     not propagate: force inconsistency via two dependent tvars. *)
  let a = Tvar.make 0 and b = Tvar.make 0 in
  let stop = Atomic.make false in
  let escaped = Atomic.make 0 in
  let writer () =
    for i = 1 to 2_000 do
      Stm.atomically (fun txn ->
          Stm.write txn a i;
          Stm.write txn b i)
    done;
    Atomic.set stop true
  in
  let reader () =
    while not (Atomic.get stop) do
      try
        Stm.atomically (fun txn ->
            let x = Stm.read txn a in
            (* a tight window to let the writer slip between the reads *)
            for _ = 1 to 50 do
              Domain.cpu_relax ()
            done;
            let y = Stm.read txn b in
            if x <> y then failwith "zombie observation")
      with Failure _ -> Atomic.incr escaped
    done
  in
  let d1 = Domain.spawn writer and d2 = Domain.spawn reader in
  Domain.join d1;
  Domain.join d2;
  check ci "zombie exceptions never escape" 0 (Atomic.get escaped)

let counter_stress name cfg () =
  let r = Tvar.make 0 in
  let n = 4 and per = 1_500 in
  spawn_all n (fun _ ->
      for _ = 1 to per do
        Stm.atomically ~config:cfg (fun txn ->
            Stm.write txn r (Stm.read txn r + 1))
      done);
  check ci name (n * per) (Tvar.peek r)

let test_extension () =
  (* With extend_reads, a late first read after another commit succeeds
     by extending instead of aborting; semantics stay correct. *)
  let cfg = { (Stm.get_default_config ()) with Stm.extend_reads = true } in
  let r = Tvar.make 0 in
  let n = 4 and per = 1_000 in
  spawn_all n (fun _ ->
      for _ = 1 to per do
        Stm.atomically ~config:cfg (fun txn ->
            Stm.write txn r (Stm.read txn r + 1))
      done);
  check ci "extension mode correct" (n * per) (Tvar.peek r)

let cm_stress name cm () =
  let cfg = { (Stm.get_default_config ()) with Stm.cm; mode = Stm.Eager_lazy } in
  let r = Tvar.make 0 in
  let n = 4 and per = 800 in
  spawn_all n (fun _ ->
      for _ = 1 to per do
        Stm.atomically ~config:cfg (fun txn ->
            Stm.write txn r (Stm.read txn r + 1))
      done);
  check ci name (n * per) (Tvar.peek r)

(* ------------------------------------------------------------------ *)
(* Transaction-local storage                                            *)

let test_local_storage () =
  let key = Stm.Local.key (fun _ -> ref 0) in
  let first, second =
    Stm.atomically (fun txn ->
        let c = Stm.Local.get txn key in
        let first = !c in
        incr c;
        (first, !(Stm.Local.get txn key)))
  in
  check ci "initialized" 0 first;
  check ci "same cell within txn" 1 second;
  (* A different transaction re-initializes. *)
  let fresh = Stm.atomically (fun txn -> !(Stm.Local.get txn key)) in
  check ci "fresh per txn" 0 fresh

let test_local_find_set () =
  let key = Stm.Local.key (fun _ -> "init") in
  Stm.atomically (fun txn ->
      check Alcotest.(option string) "find before init" None
        (Stm.Local.find txn key);
      Stm.Local.set txn key "custom";
      check Alcotest.(option string) "find after set" (Some "custom")
        (Stm.Local.find txn key))

(* ------------------------------------------------------------------ *)
(* Descriptors, stats, misc                                             *)

let test_too_many_attempts () =
  let cfg = { (Stm.get_default_config ()) with Stm.max_attempts = 3 } in
  let tries = ref 0 in
  (match
     Stm.atomically ~config:cfg (fun txn ->
         incr tries;
         ignore (Stm.restart txn))
   with
  | exception Stm.Too_many_attempts _ -> ()
  | _ -> Alcotest.fail "expected Too_many_attempts");
  check ci "ran max_attempts times" 3 !tries

let test_polite_courtesy_window () =
  (* Decision schedule: Wait while below patience, then Restart_self;
     each Wait spins an exponentially growing (capped) courtesy window,
     so late-attempt decisions take measurably longer than early ones. *)
  let cm = Contention.polite ~patience:16 () in
  let self = Txn_desc.create ~birth:0 () in
  let other = Txn_desc.create ~birth:0 () in
  let decide attempt = cm.Contention.decide ~self ~other ~attempt in
  for a = 0 to 15 do
    check cb "waits below patience" true (decide a = Contention.Wait)
  done;
  check cb "restarts self at patience" true (decide 16 = Contention.Restart_self);
  check cb "restarts self beyond patience" true
    (decide 40 = Contention.Restart_self);
  let timed attempt reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (decide attempt)
    done;
    Unix.gettimeofday () -. t0
  in
  ignore (timed 12 1);
  (* window 2^1 = 2 relax steps vs capped 2^12 = 4096 — three orders of
     magnitude apart, far beyond timer noise over 40 repetitions *)
  let early = timed 1 40 in
  let late = timed 12 40 in
  check cb "courtesy window grows with attempt" true (late > early)

let test_backoff_rounds_reset () =
  let b = Backoff.create ~ceiling:4 ~sleep_after:1_000 () in
  check ci "fresh backoff has no rounds" 0 (Backoff.rounds b);
  for _ = 1 to 5 do
    Backoff.once b
  done;
  check ci "rounds counted" 5 (Backoff.rounds b);
  Backoff.reset b;
  check ci "reset forgets history" 0 (Backoff.rounds b)

let test_backoff_spin_to_sleep () =
  (* ceiling 0 makes the spin phase negligible, so once [sleep_after]
     rounds have passed, each further round is dominated by the
     configured OS sleep. *)
  let sleep = 2e-3 in
  let b = Backoff.create ~ceiling:0 ~sleep_after:3 ~sleep () in
  let timed n =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      Backoff.once b
    done;
    Unix.gettimeofday () -. t0
  in
  let spin_phase = timed 3 in
  let sleep_phase = timed 3 in
  check cb "no sleep before the threshold" true (spin_phase < sleep);
  check cb "rounds past the threshold sleep" true
    (sleep_phase >= 2.0 *. sleep)

let test_stats_counters () =
  Stats.reset ();
  let r = Tvar.make 0 in
  Stm.atomically (fun txn -> Stm.write txn r 1);
  let s = Stats.read () in
  check cb "a start was recorded" true (s.Stats.starts >= 1);
  check cb "a commit was recorded" true (s.Stats.commits >= 1)

let test_desc_lifecycle () =
  let d = ref None in
  Stm.atomically (fun txn -> d := Some (Stm.desc txn));
  match !d with
  | None -> Alcotest.fail "no descriptor"
  | Some d -> check cb "committed after atomically" true (Txn_desc.is_committed d)

let test_read_version_exposed () =
  Stm.atomically (fun txn -> check cb "rv sane" true (Stm.read_version txn >= 0))

let test_nested_flattening () =
  let a = Tvar.make 0 and b = Tvar.make 0 in
  let v =
    Stm.atomically (fun txn ->
        Stm.write txn a 1;
        (* nested atomically joins the outer transaction *)
        Stm.atomically (fun inner ->
            check ci "inner sees outer's buffered write" 1 (Stm.read inner a);
            Stm.write inner b 2);
        Stm.read txn b)
  in
  check ci "outer sees inner's write" 2 v;
  check ci "both committed together" 3 (Tvar.peek a + Tvar.peek b)

let test_nested_abort_is_whole_txn () =
  let a = Tvar.make 0 in
  (try
     Stm.atomically (fun txn ->
         Stm.write txn a 1;
         Stm.atomically (fun _ -> failwith "inner boom"))
   with Failure _ -> ());
  check ci "outer write rolled back with the inner failure" 0 (Tvar.peek a)

let test_sequential_atomics_after_nested () =
  (* The domain-local slot must be cleared after a root txn ends. *)
  let a = Tvar.make 0 in
  Stm.atomically (fun txn -> Stm.atomically (fun _ -> Stm.write txn a 1));
  Stm.atomically (fun txn -> Stm.write txn a (Stm.read txn a + 1));
  check ci "second root transaction ran fresh" 2 (Tvar.peek a)

let suite =
  [
    test "read/write" test_read_write;
    test "nested atomically flattens" test_nested_flattening;
    test "nested failure aborts whole txn" test_nested_abort_is_whole_txn;
    test "root slot cleared after commit" test_sequential_atomics_after_nested;
    test "read-your-writes" test_read_your_writes;
    test "write buffering" test_write_buffering;
    test "multiple tvars" test_multiple_tvars;
    test "abort on exception" test_abort_on_exception;
    test "return value" test_return_value;
    test "Ref.modify" test_ref_modify;
    test "hook phases and order" test_hook_order;
    test "abort hooks LIFO" test_abort_hooks_lifo;
    test "commit hooks dropped on abort" test_commit_hooks_not_run_on_abort;
    test "retry wakes on change" test_retry_wakes_on_change;
    test "retry with empty read set" test_retry_empty_read_set_fails;
    test "retry on the fallback rung" test_retry_in_fallback_rung;
    test "or_else first" test_or_else_first_branch;
    test "or_else second" test_or_else_second_branch;
    test "or_else rollback" test_or_else_rolls_back_first_branch_writes;
    test "or_else keeps prior writes" test_or_else_keeps_prior_writes;
    slow "no fractured reads" test_no_fractured_reads;
    slow "zombie exceptions retried" test_zombie_exception_retried;
    slow "counter stress lazy-lazy" (counter_stress "lazy-lazy" lazy_cfg);
    slow "counter stress eager-lazy" (counter_stress "eager-lazy" eager_cfg);
    slow "counter stress eager-eager"
      (counter_stress "eager-eager" eager_eager_cfg);
    slow "counter stress serial-commit"
      (counter_stress "serial-commit"
         { (Stm.get_default_config ()) with Stm.mode = Stm.Serial_commit });
    slow "timestamp extension" test_extension;
    slow "cm passive" (cm_stress "passive" (Contention.passive ()));
    slow "cm polite" (cm_stress "polite" (Contention.polite ()));
    slow "cm karma" (cm_stress "karma" (Contention.karma ()));
    slow "cm timestamp" (cm_stress "timestamp" (Contention.timestamp ()));
    test "cm polite courtesy window" test_polite_courtesy_window;
    test "backoff rounds/reset" test_backoff_rounds_reset;
    slow "backoff spin-to-sleep" test_backoff_spin_to_sleep;
    test "txn-local storage" test_local_storage;
    test "txn-local find/set" test_local_find_set;
    test "too many attempts" test_too_many_attempts;
    test "stats counters" test_stats_counters;
    test "descriptor lifecycle" test_desc_lifecycle;
    test "read version" test_read_version_exposed;
  ]
