(* Emulator semantics: arithmetic, flags, memory, control flow, calls into
   the runtime registry, and the cycle model — on both targets; decode on
   first fetch and the host-slot table. *)

open Qcomp_vm

let check = Alcotest.check

(* assemble, load, call with args, return primary result *)
let run target insts ~args =
  let emu = Emu.create ~mem_size:(1 lsl 20) target in
  let a = Asm.create target in
  List.iter (Asm.emit a) insts;
  let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
  fst (Emu.call emu ~addr:base ~args)

let x64_args = Target.x64.Target.arg_regs
let a64_args = Target.a64.Target.arg_regs

(* while (n > 0) { acc += n; n--; } return acc *)
let sum_loop () =
  let a = Asm.create Target.x64 in
  let head = Asm.new_label a and exit = Asm.new_label a in
  Asm.emit a (Minst.Mov_ri (0, 0L));
  Asm.bind a head;
  Asm.emit a (Minst.Cmp_ri (x64_args.(0), 0L));
  Asm.jcc a Minst.Sle exit;
  Asm.emit a (Minst.Alu_rr (Minst.Add, 0, x64_args.(0)));
  Asm.emit a (Minst.Alu_ri (Minst.Sub, x64_args.(0), 1L));
  Asm.jmp a head;
  Asm.bind a exit;
  Asm.emit a Minst.Ret;
  Asm.finish a

(* A TPC-H query compiled, linked and disposed on every native back-end
   never fetches its code, so nothing is decoded; executing it decodes its
   module once, however often it runs. *)
let compile_only_decodes_nothing () =
  let open Qcomp_engine in
  let db =
    Experiments.make_db ~mem_size:(1 lsl 26) Target.x64 Experiments.Tpch ~sf:1
  in
  let emu = db.Engine.emu in
  let q = List.hd (Experiments.queries_of Experiments.Tpch) in
  let timing = Qcomp_support.Timing.create ~enabled:false () in
  let link b =
    match Qcomp_backend.Backend.compile_artifact b with
    | None -> None
    | Some gen ->
        let cq =
          Engine.plan_to_ir db ~name:q.Qcomp_workloads.Spec.q_name
            q.Qcomp_workloads.Spec.q_plan
        in
        let art =
          gen ~timing ~target:db.Engine.target ~registry:db.Engine.registry
            cq.Qcomp_codegen.Codegen.modul
        in
        let cm =
          Qcomp_backend.Backend.link_artifact ~timing ~emu
            ~registry:db.Engine.registry ~unwind:db.Engine.unwind art
        in
        Some (cq, cm)
  in
  let native =
    List.filter_map
      (fun b -> Option.map (fun l -> (b, l)) (link b))
      (Engine.all_backends db)
  in
  check Alcotest.int "native back-ends" 6 (List.length native);
  List.iter (fun (_, (_, cm)) -> Engine.dispose_module db cm) native;
  let d = Emu.decode_stats emu in
  check Alcotest.int "modules decoded" 0 d.Emu.decoded_modules;
  check Alcotest.int "bytes decoded" 0 d.Emu.decoded_bytes;
  List.iter
    (fun (b, _) ->
      match link b with
      | None -> ()
      | Some (cq, cm) ->
          let before = Emu.decode_stats emu in
          let r1 = Engine.execute db cq cm in
          let r2 = Engine.execute db cq cm in
          Engine.dispose_module db cm;
          let after = Emu.decode_stats emu in
          let name = Qcomp_backend.Backend.name b in
          check Alcotest.int (name ^ ": decoded once") 1
            (after.Emu.decoded_modules - before.Emu.decoded_modules);
          check Alcotest.int (name ^ ": decoded its region")
            (List.fold_left (fun n r -> n + Code_region.size r) 0
               cm.Qcomp_backend.Backend.cm_regions)
            (after.Emu.decoded_bytes - before.Emu.decoded_bytes);
          check Alcotest.int (name ^ ": same cycles") r1.Engine.exec_cycles
            r2.Engine.exec_cycles)
    native

let suite =
  [
    Alcotest.test_case "x64 add" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 40L; 2L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Alu_rr (Minst.Add, 0, x64_args.(1));
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "42" 42L r);
    Alcotest.test_case "a64 three-address add" `Quick (fun () ->
        let r =
          run Target.a64 ~args:[| 40L; 2L |]
            [ Minst.Alu_rrr (Minst.Add, 0, a64_args.(0), a64_args.(1)); Minst.Ret ]
        in
        check Alcotest.int64 "42" 42L r);
    Alcotest.test_case "x64 flags: sub sets zero" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 7L; 7L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Cmp_rr (0, x64_args.(1));
              Minst.Setcc (Minst.Eq, 0);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "eq" 1L r);
    Alcotest.test_case "signed overflow flag on add" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| Int64.max_int; 1L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Alu_rr (Minst.Add, 0, x64_args.(1));
              Minst.Setcc (Minst.Ov, 0);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "overflowed" 1L r);
    Alcotest.test_case "no overflow on benign add" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 1L; 1L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Alu_rr (Minst.Add, 0, x64_args.(1));
              Minst.Setcc (Minst.Ov, 0);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "clean" 0L r);
    Alcotest.test_case "adc/sbb carry chain (128-bit add)" `Quick (fun () ->
        (* lo=all-ones + 1 carries into hi *)
        let r =
          run Target.x64 ~args:[| -1L; 1L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Alu_ri (Minst.Add, 0, 1L);
              (* carry set; hi = 0 + 0 + carry *)
              Minst.Mov_ri (1, 0L);
              Minst.Alu_ri (Minst.Adc, 1, 0L);
              Minst.Mov_rr (0, 1);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "carried" 1L r);
    Alcotest.test_case "mul_wide rdx:rax" `Quick (fun () ->
        (* (2^32)^2 = 2^64: rax = 0, rdx = 1 *)
        let r =
          run Target.x64 ~args:[| 0x1_0000_0000L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Mov_rr (1, x64_args.(0));
              Minst.Mul_wide { signed = false; src = 1 };
              Minst.Mov_rr (0, 2) (* rdx *);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "high word" 1L r);
    Alcotest.test_case "x64 div and remainder" `Quick (fun () ->
        let insts want_rem =
          [
            Minst.Mov_rr (0, x64_args.(0));
            Minst.Mov_ri (2, 0L);
            Minst.Div { signed = false; src = x64_args.(1) };
            Minst.Mov_rr (0, if want_rem then 2 else 0);
            Minst.Ret;
          ]
        in
        check Alcotest.int64 "quot" 6L (run Target.x64 ~args:[| 45L; 7L |] (insts false));
        check Alcotest.int64 "rem" 3L (run Target.x64 ~args:[| 45L; 7L |] (insts true)));
    Alcotest.test_case "a64 div + msub remainder idiom" `Quick (fun () ->
        let r =
          run Target.a64 ~args:[| 45L; 7L |]
            [
              Minst.Div_rrr { signed = true; dst = 2; a = a64_args.(0); b = a64_args.(1) };
              Minst.Msub { dst = 0; a = 2; b = a64_args.(1); c = a64_args.(0) };
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "rem" 3L r);
    Alcotest.test_case "load/store roundtrip with sizes" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a = Asm.create Target.x64 in
        (* store arg1 byte at [arg0], load back sign-extended *)
        List.iter (Asm.emit a)
          [
            Minst.St { src = x64_args.(1); base = x64_args.(0); off = 0; size = 1 };
            Minst.Ld { dst = 0; base = x64_args.(0); off = 0; size = 1; sext = true };
            Minst.Ret;
          ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let buf = Memory.alloc (Emu.memory emu) 16 in
        let r, _ = Emu.call emu ~addr:base ~args:[| Int64.of_int buf; 0xFFL |] in
        check Alcotest.int64 "sext byte" (-1L) r);
    Alcotest.test_case "crc32 instruction matches Hashes" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 0x1234L; 0x5678L |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Crc32_rr (0, x64_args.(1));
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "crc" (Qcomp_support.Hashes.crc32c 0x1234L 0x5678L) r);
    Alcotest.test_case "branches: loop sums 1..n" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let base = Code_region.base (Emu.register_code emu (sum_loop ())) in
        let r, _ = Emu.call emu ~addr:base ~args:[| 10L |] in
        check Alcotest.int64 "55" 55L r);
    Alcotest.test_case "runtime dispatch: OCaml function callable" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let addr =
          Emu.add_runtime emu (fun e ->
              let v = Emu.reg e (Emu.arg_reg e 0) in
              Emu.set_reg e Target.x64.Target.ret_regs.(0) (Int64.mul v 2L))
        in
        let a = Asm.create Target.x64 in
        List.iter (Asm.emit a)
          [
            Minst.Mov_ri (1, addr);
            Minst.Call_ind 1;
            Minst.Ret;
          ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let r, _ = Emu.call emu ~addr:base ~args:[| 21L |] in
        check Alcotest.int64 "doubled" 42L r);
    Alcotest.test_case "runtime call balances the stack" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let addr = Emu.add_runtime emu (fun _ -> ()) in
        let a = Asm.create Target.x64 in
        let sp = Target.x64.Target.sp in
        List.iter (Asm.emit a)
          [
            Minst.Mov_rr (0, sp);
            Minst.Mov_ri (1, addr);
            Minst.Call_ind 1;
            Minst.Call_ind 1;
            Minst.Alu_rr (Minst.Sub, 0, sp);
            Minst.Ret;
          ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        let r, _ = Emu.call emu ~addr:base ~args:[||] in
        check Alcotest.int64 "sp preserved" 0L r);
    Alcotest.test_case "brk raises Trap" `Quick (fun () ->
        match run Target.x64 ~args:[||] [ Minst.Brk 7 ] with
        | exception Emu.Trap _ -> ()
        | _ -> Alcotest.fail "expected trap");
    Alcotest.test_case "jump to unmapped address traps" `Quick (fun () ->
        match
          run Target.x64 ~args:[||]
            [ Minst.Mov_ri (1, 0xDEAD000L); Minst.Jmp_ind 1 ]
        with
        | exception Emu.Trap _ -> ()
        | _ -> Alcotest.fail "expected trap");
    Alcotest.test_case "cycles accumulate monotonically" `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a = Asm.create Target.x64 in
        List.iter (Asm.emit a) [ Minst.Mov_ri (0, 1L); Minst.Ret ];
        let base = Code_region.base (Emu.register_code emu (Asm.finish a)) in
        ignore (Emu.call emu ~addr:base ~args:[||]);
        let c1 = Emu.cycles emu in
        ignore (Emu.call emu ~addr:base ~args:[||]);
        check Alcotest.bool "grows" true (Emu.cycles emu > c1);
        Emu.reset_counters emu;
        check Alcotest.int "reset" 0 (Emu.cycles emu));
    Alcotest.test_case "a64 csel both ways" `Quick (fun () ->
        let prog c =
          [
            Minst.Cmp_rr (a64_args.(0), a64_args.(1));
            Minst.Csel { cond = c; dst = 0; a = a64_args.(0); b = a64_args.(1) };
            Minst.Ret;
          ]
        in
        check Alcotest.int64 "min" 3L (run Target.a64 ~args:[| 3L; 9L |] (prog Minst.Slt));
        check Alcotest.int64 "max" 9L (run Target.a64 ~args:[| 3L; 9L |] (prog Minst.Sgt)));
    Alcotest.test_case "float ops on bit patterns" `Quick (fun () ->
        let bits f = Int64.bits_of_float f in
        let r =
          run Target.x64 ~args:[| bits 1.5; bits 2.25 |]
            [
              Minst.Mov_rr (0, x64_args.(0));
              Minst.Falu_rr (Minst.Fadd, 0, x64_args.(1));
              Minst.Ret;
            ]
        in
        check (Alcotest.float 1e-9) "sum" 3.75 (Int64.float_of_bits r));
    Alcotest.test_case "cvt int<->float" `Quick (fun () ->
        let r =
          run Target.x64 ~args:[| 7L |]
            [
              Minst.Cvt_si2f (0, x64_args.(0));
              Minst.Cvt_f2si (0, 0);
              Minst.Ret;
            ]
        in
        check Alcotest.int64 "roundtrip" 7L r);
    Alcotest.test_case "page_align boundary sizes" `Quick (fun () ->
        check Alcotest.int "0" 0 (Emu.page_align 0);
        check Alcotest.int "1" 4096 (Emu.page_align 1);
        check Alcotest.int "4096" 4096 (Emu.page_align 4096);
        check Alcotest.int "4097" 8192 (Emu.page_align 4097));
    Alcotest.test_case "code region release recycles the address range" `Quick
      (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let blob v =
          let a = Asm.create Target.x64 in
          List.iter (Asm.emit a) [ Minst.Mov_ri (0, v); Minst.Ret ];
          Asm.finish a
        in
        let r1 = Emu.register_code emu (blob 7L) in
        check Alcotest.bool "live" true (Code_region.is_live r1);
        check Alcotest.int "accounted" (Code_region.size r1)
          (Emu.live_code_bytes emu);
        Emu.release_code emu r1;
        check Alcotest.bool "dead" false (Code_region.is_live r1);
        check Alcotest.int "live zero" 0 (Emu.live_code_bytes emu);
        check Alcotest.int "freed counted" (Code_region.size r1)
          (Emu.freed_code_bytes emu);
        (* same-size registration reuses the released span *)
        let r2 = Emu.register_code emu (blob 9L) in
        check Alcotest.int "address recycled" (Code_region.base r1)
          (Code_region.base r2);
        let v, _ = Emu.call emu ~addr:(Code_region.base r2) ~args:[||] in
        check Alcotest.int64 "recycled region executes" 9L v;
        check Alcotest.int "peak is one region"
          (Code_region.size r1)
          (Emu.peak_code_bytes emu));
    Alcotest.test_case "fetch from freed region traps as use-after-free" `Quick
      (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a = Asm.create Target.x64 in
        List.iter (Asm.emit a) [ Minst.Mov_ri (0, 1L); Minst.Ret ];
        let r = Emu.register_code emu (Asm.finish a) in
        let base = Code_region.base r in
        ignore (Emu.call emu ~addr:base ~args:[||]);
        Emu.release_code emu r;
        (match Emu.call emu ~addr:base ~args:[||] with
        | exception Emu.Trap msg ->
            check Alcotest.bool
              ("trap names use-after-free: " ^ msg)
              true
              (String.length msg >= 14 && String.sub msg 0 14 = "use-after-free")
        | _ -> Alcotest.fail "expected use-after-free trap");
        match Emu.release_code emu r with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument on double release");
    Alcotest.test_case "runtime slots recycle and trap after removal" `Quick
      (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let a1 = Emu.add_runtime emu (fun _ -> ()) in
        Emu.remove_runtime emu a1;
        (match Emu.call emu ~addr:(Int64.to_int a1) ~args:[||] with
        | exception Emu.Trap msg ->
            check Alcotest.bool
              ("trap names use-after-free: " ^ msg)
              true
              (String.length msg >= 14 && String.sub msg 0 14 = "use-after-free")
        | _ -> Alcotest.fail "expected use-after-free trap");
        (* freed slot is reused by the next registration and works again *)
        let a2 = Emu.add_runtime emu (fun _ -> ()) in
        check Alcotest.int64 "slot recycled" a1 a2;
        ignore (Emu.call emu ~addr:(Int64.to_int a2) ~args:[||]);
        match Emu.remove_runtime emu a2 with
        | () -> (
            match Emu.remove_runtime emu a2 with
            | exception Invalid_argument _ -> ()
            | () -> Alcotest.fail "expected Invalid_argument on double remove"));
    Alcotest.test_case "two-domain register/release stress" `Quick (fun () ->
        (* two domains each hammer the shared code registry through their
           own execution context: register a blob, execute it, release it.
           Freed spans from one domain get recycled by the other; the
           shared live/freed gauges must balance exactly at the end. *)
        let emu = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let iters = 200 in
        let blob v =
          let a = Asm.create Target.x64 in
          List.iter (Asm.emit a) [ Minst.Mov_ri (0, v); Minst.Ret ];
          Asm.finish a
        in
        let registered = Atomic.make 0 in
        let failure = Atomic.make None in
        let worker seed () =
          let ctx = Emu.context emu in
          for i = 1 to iters do
            let v = Int64.of_int ((seed * 1_000_000) + i) in
            let r = Emu.register_code ctx (blob v) in
            ignore (Atomic.fetch_and_add registered (Code_region.size r));
            let got, _ = Emu.call ctx ~addr:(Code_region.base r) ~args:[||] in
            if got <> v then
              Atomic.set failure
                (Some (Printf.sprintf "domain %d iter %d: %Ld <> %Ld" seed i got v));
            Emu.release_code ctx r
          done
        in
        let d1 = Domain.spawn (worker 1) and d2 = Domain.spawn (worker 2) in
        Domain.join d1;
        Domain.join d2;
        (match Atomic.get failure with
        | Some msg -> Alcotest.fail msg
        | None -> ());
        check Alcotest.int "all code released" 0 (Emu.live_code_bytes emu);
        check Alcotest.int "freed equals registered" (Atomic.get registered)
          (Emu.freed_code_bytes emu));
    Alcotest.test_case "contexts: isolated registers and stacks across domains"
      `Quick (fun () ->
        (* one shared loop blob, executed simultaneously from two contexts
           with different arguments: registers, flags and call stacks are
           per-context, so both must compute their own sums *)
        let emu = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let base = Code_region.base (Emu.register_code emu (sum_loop ())) in
        let sum n = Int64.of_int (n * (n + 1) / 2) in
        let bad = Atomic.make 0 in
        let worker n () =
          let ctx = Emu.context emu in
          for _ = 1 to 500 do
            let r, _ = Emu.call ctx ~addr:base ~args:[| Int64.of_int n |] in
            if r <> sum n then ignore (Atomic.fetch_and_add bad 1)
          done
        in
        let d1 = Domain.spawn (worker 100) and d2 = Domain.spawn (worker 37) in
        Domain.join d1;
        Domain.join d2;
        check Alcotest.int "no cross-context corruption" 0 (Atomic.get bad));
    Alcotest.test_case "undecodable blob registers and traps on its first call"
      `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        (* valid code followed by an opcode no decoder knows, or by the
           first byte of a 10-byte instruction: the module is decoded
           whole, so even the valid entry point cannot run *)
        let bad tail =
          let a = Asm.create Target.x64 in
          List.iter (Asm.emit a) [ Minst.Mov_ri (0, 1L); Minst.Ret ];
          Emu.register_code emu (Bytes.cat (Asm.finish a) (Bytes.make 1 tail))
        in
        let bad_opcode = bad '\xff' and truncated = bad '\x03' in
        let sibling = Code_region.base (Emu.register_code emu (sum_loop ())) in
        List.iter
          (fun r ->
            for _ = 1 to 2 do
              match Emu.call emu ~addr:(Code_region.base r) ~args:[||] with
              | exception Emu.Trap msg ->
                  check Alcotest.bool ("trap names the decode: " ^ msg) true
                    (String.starts_with ~prefix:"undecodable code" msg)
              | exception Asm.Decode_error _ -> Alcotest.fail "Decode_error escaped"
              | _ -> Alcotest.fail "expected a trap"
            done)
          [ bad_opcode; truncated ];
        let v, _ = Emu.call emu ~addr:sibling ~args:[| 10L |] in
        check Alcotest.int64 "sibling module still runs" 55L v;
        check Alcotest.int "only the sibling decoded" 1
          (Emu.decode_stats emu).Emu.decoded_modules);
    Alcotest.test_case "compile, link and dispose without executing decodes nothing"
      `Quick compile_only_decodes_nothing;
    Alcotest.test_case "decoded region, once released, traps as use-after-free"
      `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let r = Emu.register_code emu (sum_loop ()) in
        let base = Code_region.base r in
        check Alcotest.int "nothing decoded at registration" 0
          (Emu.decode_stats emu).Emu.decoded_modules;
        ignore (Emu.call emu ~addr:base ~args:[| 3L |]);
        let d = Emu.decode_stats emu in
        check Alcotest.int "decoded on first call" 1 d.Emu.decoded_modules;
        check Alcotest.int "whole blob decoded" (Code_region.size r) d.Emu.decoded_bytes;
        Emu.release_code emu r;
        match Emu.call emu ~addr:base ~args:[| 3L |] with
        | exception Emu.Trap msg ->
            check Alcotest.bool ("trap: " ^ msg) true
              (String.starts_with ~prefix:"use-after-free code region" msg)
        | _ -> Alcotest.fail "expected use-after-free trap");
    Alcotest.test_case "two domains racing the first call into one module"
      `Quick (fun () ->
        (* fresh modules, each entered for the first time by two domains
           released together: both decode, one result is kept, and both
           calls compute the same value in the same cycles *)
        let emu = Emu.create ~mem_size:(1 lsl 22) Target.x64 in
        let n = 40 in
        let bases =
          Array.init n (fun _ -> Code_region.base (Emu.register_code emu (sum_loop ())))
        in
        let ready = Atomic.make 0 in
        let worker () =
          let ctx = Emu.context emu in
          Array.mapi
            (fun i base ->
              Atomic.incr ready;
              while Atomic.get ready < 2 * (i + 1) do
                Domain.cpu_relax ()
              done;
              Emu.reset_counters ctx;
              let v, _ = Emu.call ctx ~addr:base ~args:[| 100L |] in
              (v, Emu.cycles ctx))
            bases
        in
        let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
        let r1 = Domain.join d1 and r2 = Domain.join d2 in
        Array.iteri
          (fun i (v1, c1) ->
            let v2, c2 = r2.(i) in
            check Alcotest.int64 "result" 5050L v1;
            check Alcotest.int64 "same result" v1 v2;
            check Alcotest.int "same cycles" c1 c2)
          r1;
        check Alcotest.int "each module counted once" n
          (Emu.decode_stats emu).Emu.decoded_modules);
    Alcotest.test_case "host-slot table stays at its peak over 10k add/remove"
      `Quick (fun () ->
        let emu = Emu.create ~mem_size:(1 lsl 20) Target.x64 in
        let peak = 37 in
        let live = Array.init peak (fun _ -> Emu.add_runtime emu (fun _ -> ())) in
        let cap = Emu.runtime_capacity emu in
        check Alcotest.int "slots" peak (Emu.runtime_slots emu);
        check Alcotest.bool "capacity doubles" true (cap >= peak && cap < 2 * peak);
        for i = 1 to 10_000 do
          let k = i mod peak in
          Emu.remove_runtime emu live.(k);
          live.(k) <- Emu.add_runtime emu (fun e -> Emu.charge e i)
        done;
        check Alcotest.int "no slot added" peak (Emu.runtime_slots emu);
        check Alcotest.int "capacity unchanged" cap (Emu.runtime_capacity emu);
        (* every live slot runs its latest function *)
        Emu.reset_counters emu;
        ignore (Emu.call emu ~addr:(Int64.to_int live.(0)) ~args:[||]);
        check Alcotest.int "latest function" (9_990 + Emu.runtime_dispatch_cost)
          (Emu.cycles emu);
        Emu.remove_runtime emu live.(0);
        match Emu.remove_runtime emu live.(0) with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail "expected Invalid_argument on double release");
    Alcotest.test_case "memory claim pins spans above the break" `Quick
      (fun () ->
        let m = Memory.create (1 lsl 20) in
        let raises f =
          match f () with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        let below = Memory.alloc m 64 in
        (* pin a span well above the break, as a snapshot load would *)
        let addr = below + 4096 in
        Memory.claim m ~addr ~size:16 ~align:16;
        Memory.store64 m addr 0xBEEFL;
        (* the bump allocator must route around the claimed span *)
        for _ = 1 to 1024 do
          let a = Memory.alloc m 64 in
          if a < addr + 16 && addr < a + 64 then
            Alcotest.failf "alloc 0x%x overlaps the claimed span 0x%x" a addr
        done;
        check Alcotest.int64 "claimed bytes survive the alloc storm" 0xBEEFL
          (Memory.load64 m addr);
        (* every invalid claim fails loud *)
        check Alcotest.bool "below the break" true
          (raises (fun () -> Memory.claim m ~addr:below ~size:16 ~align:16));
        check Alcotest.bool "double claim" true
          (raises (fun () -> Memory.claim m ~addr ~size:16 ~align:16));
        check Alcotest.bool "overlapping claim" true
          (raises (fun () -> Memory.claim m ~addr:(addr + 8) ~size:16 ~align:8));
        check Alcotest.bool "misaligned" true
          (raises (fun () -> Memory.claim m ~addr:(addr + 33) ~size:8 ~align:8));
        check Alcotest.bool "zero size" true
          (raises (fun () -> Memory.claim m ~addr:(addr + 64) ~size:0 ~align:8));
        check Alcotest.bool "out of range" true
          (raises (fun () ->
               Memory.claim m ~addr:((1 lsl 20) - 8) ~size:16 ~align:8)));
  ]
