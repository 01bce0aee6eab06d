(** The [Multi_version] mode and the abort-free read-only API.

    Five claims are checked here, on top of the sweep coverage the
    mode picks up automatically from [Util.all_modes] (matrix, chaos,
    opacity, lin):

    - the [Stm.Mode] authority round-trips every mode name and rejects
      unknown ones (the CLI, env default and test sweeps all parse
      through it);
    - [Stm.read_only] never aborts — not even against a write-heavy
      antagonist hammering its read set from every other domain
      ([ro_aborts] stays 0 while [ro_commits] climbs);
    - snapshots are consistent: a reader sees a prefix of the
      committed version order, so multi-tvar invariants hold at every
      observation point and repeated reads inside one snapshot agree;
    - the bounded version GC never reclaims a version an active
      snapshot can still reach, and chains stay within K+1 entries;
    - writes inside a read-only scope fail typed
      ([Stm.Read_only_violation]), leaving no residue. *)

open Util

let n_domains =
  match Sys.getenv_opt "PROUST_MVCC_DOMAINS" with
  | Some s -> (try max 2 (int_of_string s) with _ -> 4)
  | None -> 4

(* -- the Mode authority ---------------------------------------------- *)

let test_mode_roundtrip () =
  check ci "five modes" 5 (List.length Stm.Mode.all);
  List.iter
    (fun m ->
      let s = Stm.Mode.to_string m in
      check cb ("roundtrip " ^ s) true (Stm.Mode.of_string s = m);
      check cb ("opt roundtrip " ^ s) true
        (Stm.Mode.of_string_opt s = Some m))
    Stm.Mode.all;
  check cb "names match all" true
    (Stm.Mode.names () = List.map Stm.Mode.to_string Stm.Mode.all);
  check cb "distinct names" true
    (List.length (List.sort_uniq compare (Stm.Mode.names ())) = 5);
  check cb "unknown is None" true (Stm.Mode.of_string_opt "bogus" = None);
  check cb "unknown raises" true
    (match Stm.Mode.of_string "bogus" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let qcheck_mode_roundtrip =
  qcheck ~count:100 "mode name roundtrip (qcheck)"
    QCheck2.Gen.(oneofl Stm.Mode.all)
    (fun m -> Stm.Mode.of_string (Stm.Mode.to_string m) = m)

(* -- zero read-only aborts under a write-heavy antagonist ------------ *)

(* Writers keep the coupled invariant [y = 2 * x] with update
   transactions; read-only snapshots assert it from every observation.
   The Stats delta is the acceptance gate: no RO abort, ever. *)
let test_ro_never_aborts () =
  with_seed_note @@ fun () ->
  let cfg = mvcc_cfg in
  let x = Tvar.make 0 and y = Tvar.make 0 in
  let writes_per_domain = 2_000 and reads_per_domain = 2_000 in
  let before = Stats.read () in
  spawn_all n_domains (fun i ->
      if i land 1 = 0 then
        for _ = 1 to writes_per_domain do
          Stm.atomically ~config:cfg (fun txn ->
              let v = Stm.read txn x + 1 in
              Stm.write txn x v;
              Stm.write txn y (2 * v))
        done
      else
        for _ = 1 to reads_per_domain do
          let a, b =
            Stm.read_only ~config:cfg (fun txn ->
                (Stm.read txn x, Stm.read txn y))
          in
          if b <> 2 * a then
            Alcotest.failf "torn snapshot: x=%d y=%d" a b
        done);
  let d = Stats.diff before (Stats.read ()) in
  check ci "zero read-only aborts" 0 d.Stats.ro_aborts;
  check cb "read-only commits happened" true (d.Stats.ro_commits > 0);
  check cb "snapshot reads recorded" true (d.Stats.ro_snapshot_reads > 0);
  check cb "writers installed versions" true (d.Stats.versions_installed > 0)

(* -- snapshot = prefix of the committed version order ---------------- *)

(* One writer commits [h := h+1; log(h)] so the pair (h, trace-sum)
   moves through a known sequence; any snapshot of both tvars must
   land exactly on one committed state — sum = h*(h+1)/2 — never a
   mix of two.  Repeated reads inside a snapshot must also agree even
   as commits race past. *)
let test_snapshot_prefix () =
  with_seed_note @@ fun () ->
  let cfg = mvcc_cfg in
  let h = Tvar.make 0 and sum = Tvar.make 0 in
  let stop = Atomic.make false in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let torn = ref 0 in
            while not (Atomic.get stop) do
              Stm.read_only ~config:cfg (fun txn ->
                  let a = Stm.read txn h in
                  let s = Stm.read txn sum in
                  if s <> a * (a + 1) / 2 then incr torn;
                  (* re-reads inside one snapshot agree *)
                  if Stm.read txn h <> a then incr torn)
            done;
            !torn))
  in
  for _ = 1 to 3_000 do
    Stm.atomically ~config:cfg (fun txn ->
        let v = Stm.read txn h + 1 in
        Stm.write txn h v;
        Stm.write txn sum (Stm.read txn sum + v))
  done;
  Atomic.set stop true;
  let torn = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  check ci "no torn or non-prefix snapshot" 0 torn

(* -- GC keeps what an active snapshot can see ------------------------ *)

let test_gc_respects_active_snapshot () =
  with_seed_note @@ fun () ->
  let cfg = mvcc_cfg in
  let tv = Tvar.make 0 in
  let started = Atomic.make false and writers_done = Atomic.make false in
  let k = Snapshots.max_versions () in
  let reader =
    Domain.spawn (fun () ->
        Stm.read_only ~config:cfg (fun txn ->
            let v1 = Stm.read txn tv in
            Atomic.set started true;
            while not (Atomic.get writers_done) do
              Domain.cpu_relax ()
            done;
            (* far more than K commits have landed since v1; the GC
               must have kept a version this snapshot resolves to *)
            let v2 = Stm.read txn tv in
            (v1, v2)))
  in
  while not (Atomic.get started) do
    Domain.cpu_relax ()
  done;
  for _ = 1 to 16 * k do
    Stm.atomically ~config:cfg (fun txn ->
        Stm.write txn tv (Stm.read txn tv + 1))
  done;
  Atomic.set writers_done true;
  let v1, v2 = Domain.join reader in
  check ci "snapshot stable across GC pressure" v1 v2;
  (* With the snapshot gone, the next publish (the chain is far past
     the 2K trim threshold) reclaims the history the floor was
     protecting, back down to the amortized bound. *)
  Stm.atomically ~config:cfg (fun txn ->
      Stm.write txn tv (Stm.read txn tv + 1));
  check cb "chain rebounded after deregistration" true
    (Tvar.version_chain_len tv <= (2 * k) + 1)

(* -- version-GC fault point ------------------------------------------ *)

(* Injection at [Version_gc] widens the floor-read-to-install window
   inside every publish; the invariant workload and the zero-RO-abort
   gate must hold regardless.  The point is delay-only by
   construction, so disruptive draws are served as spins. *)
let test_version_gc_chaos () =
  with_seed_note @@ fun () ->
  let cfg = mvcc_cfg in
  Fault.uniform ~seed:(sub_seed 71) ~prob:0.3
    ~actions:[ Fault.Delay 200; Fault.Abort ]
    [ Fault.Version_gc ];
  Fun.protect ~finally:Fault.disable @@ fun () ->
  let x = Tvar.make 0 and y = Tvar.make 0 in
  let before = Stats.read () in
  spawn_all n_domains (fun i ->
      if i land 1 = 0 then
        for _ = 1 to 500 do
          Stm.atomically ~config:cfg (fun txn ->
              let v = Stm.read txn x + 1 in
              Stm.write txn x v;
              Stm.write txn y (-v))
        done
      else
        for _ = 1 to 500 do
          let a, b =
            Stm.read_only ~config:cfg (fun txn ->
                (Stm.read txn x, Stm.read txn y))
          in
          if a + b <> 0 then Alcotest.failf "torn under chaos: %d %d" a b
        done);
  let d = Stats.diff before (Stats.read ()) in
  check ci "zero RO aborts under version-gc chaos" 0 d.Stats.ro_aborts;
  check cb "faults actually fired" true (d.Stats.injected_faults > 0)

(* -- typed write rejection ------------------------------------------- *)

let test_read_only_violation () =
  let cfg = mvcc_cfg in
  let tv = Tvar.make 7 in
  check cb "write raises in read_only" true
    (match Stm.read_only ~config:cfg (fun txn -> Stm.write txn tv 8) with
    | exception Stm.Read_only_violation -> true
    | () -> false);
  check ci "value untouched" 7 (Stm.atomically (fun txn -> Stm.read txn tv));
  (* the QoS envelope accepts the same flag *)
  (match Stm.atomic ~read_only:true ~config:cfg (fun txn -> Stm.read txn tv)
   with
  | Stm.Outcome.Committed v -> check ci "atomic ~read_only commits" 7 v
  | _ -> Alcotest.fail "atomic ~read_only did not commit");
  (* nested: a read_only scope inside an update txn is temporary *)
  Stm.atomically ~config:cfg (fun txn ->
      let v = Stm.read_only (fun t -> Stm.read t tv) in
      check cb "nested read_only joins" true (v = 7);
      Stm.write txn tv (v + 1));
  check ci "outer write after nested scope" 8
    (Stm.atomically (fun txn -> Stm.read txn tv))

(* -- retry and user exceptions on the snapshot rung ------------------- *)

(* Snapshot reads record no watch entries, so a [retry] there can never
   be woken: both read-only entry points fail typed, even after a read,
   and hand the pooled record back clean. *)
let test_read_only_retry_fails_typed () =
  let tv = Tvar.make 1 in
  let body txn =
    ignore (Stm.read txn tv);
    Stm.retry txn
  in
  (match Stm.read_only ~config:mvcc_cfg body with
  | exception Stm.Retry_no_reads -> ()
  | _ -> Alcotest.fail "read_only: expected Retry_no_reads");
  Stm.descriptor_pool_check ();
  (match Stm.atomic ~read_only:true ~config:mvcc_cfg body with
  | exception Stm.Retry_no_reads -> ()
  | _ -> Alcotest.fail "atomic ~read_only: expected Retry_no_reads");
  Stm.descriptor_pool_check ()

(* A snapshot is consistent by construction, so a user exception is a
   real error, never a zombie artifact: it propagates after exactly one
   attempt, with the pool clean and no read-only commit counted. *)
let test_read_only_exception_propagates () =
  let tv = Tvar.make 1 in
  let attempts = ref 0 in
  let before = Stats.read () in
  (match
     Stm.read_only ~config:mvcc_cfg (fun txn ->
         incr attempts;
         ignore (Stm.read txn tv);
         failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the body's exception");
  let d = Stats.diff before (Stats.read ()) in
  check ci "exactly one attempt" 1 !attempts;
  check ci "no read-only commit" 0 d.Stats.ro_commits;
  Stm.descriptor_pool_check ()

(* -- unarmed processes keep the one-store publish -------------------- *)

(* Can't assert the *absence* of arming in this binary (other suites
   arm it), but the armed flag must be sticky and the chain length
   reporting sane either way. *)
let test_armed_sticky () =
  ignore (Stm.atomically ~config:mvcc_cfg (fun txn -> Stm.read txn (Tvar.make 0)));
  check cb "selecting Multi_version arms snapshots" true (Snapshots.armed ())

let suite =
  [
    test "mode names roundtrip and reject unknowns" test_mode_roundtrip;
    qcheck_mode_roundtrip;
    test "selecting Multi_version arms snapshots" test_armed_sticky;
    slow "read-only never aborts under write-heavy antagonist"
      test_ro_never_aborts;
    slow "snapshots are a prefix of the committed order"
      test_snapshot_prefix;
    slow "GC never reclaims a version an active snapshot sees"
      test_gc_respects_active_snapshot;
    slow "version-gc fault point: invariants hold, zero RO aborts"
      test_version_gc_chaos;
    test "writes in read-only scopes fail typed" test_read_only_violation;
    test "retry in a read-only transaction fails typed"
      test_read_only_retry_fails_typed;
    test "a raising read-only body propagates after one attempt"
      test_read_only_exception_propagates;
  ]
