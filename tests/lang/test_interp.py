"""Interpreter end-to-end tests: mini-Argus programs on the runtime."""

import pytest

from repro.entities import ArgusSystem
from repro.lang import Interpreter, load_module, run_source

GUARDIAN = """
guardian g is
  handler h (x: int) returns (int) signals (neg)
    if x < 0 then signal neg end
    sleep(0.1)
    return (x * 2)
  end
  handler note (s: string)
    return ()
  end
end
"""


def run(source, program="main"):
    result, system = run_source(source, latency=1.0, kernel_overhead=0.1)
    return result


def test_rpc_expression():
    assert run(GUARDIAN + "program main\n v: int := g.h(21)\n return (v)\nend") == 42


def test_stream_claim_roundtrip():
    assert (
        run(
            GUARDIAN
            + """
            pt = promise returns (int) signals (neg)
            program main
              p: pt := stream g.h(5)
              flush g.h
              return (pt$claim(p))
            end
            """
        )
        == 10
    )


def test_ready_probe():
    assert (
        run(
            GUARDIAN
            + """
            pt = promise returns (int) signals (neg)
            program main
              p: pt := stream g.h(5)
              early: bool := pt$ready(p)
              flush g.h
              v: int := pt$claim(p)
              late: bool := pt$ready(p)
              if early then return (1) end
              if late then return (2) end
              return (3)
            end
            """
        )
        == 2
    )


def test_exception_handled_by_when_arm():
    assert (
        run(
            GUARDIAN
            + """
            program main
              v: int := 0
              v := g.h(-1) except when neg: v := -99 end
              return (v)
            end
            """
        )
        == -99
    )


def test_unhandled_signal_selects_others_arm():
    assert (
        run(
            GUARDIAN
            + """
            program main
              v: int := 0
              v := g.h(-1) except
                when others(why: string): v := -1
              end
              return (v)
            end
            """
        )
        == -1
    )


def test_arithmetic_and_control_flow():
    assert (
        run(
            """
            program main
              total: int := 0
              i: int := 1
              while i <= 10 do
                if i / 2.0 = trunc(i / 2.0) * 1.0 then
                  total := total + i
                end
                i := i + 1
              end
              return (total)
            end
            """
        )
        == 30
    )


def test_arrays_and_for_loops():
    assert (
        run(
            """
            program main
              xs: array[int] := #[3, 1, 4, 1, 5]
              total: int := 0
              for x: int in xs do
                total := total + x
              end
              return (total)
            end
            """
        )
        == 14
    )


def test_records_and_field_update():
    assert (
        run(
            """
            point = record [ x: int, y: int ]
            program main
              p: point := point${x: 1, y: 2}
              p.y := 10
              return (p.x + p.y)
            end
            """
        )
        == 11
    )


def test_make_string_formats_like_the_paper():
    assert (
        run(
            """
            program main
              return (make_string("amy", 85.5))
            end
            """
        )
        == "amy 85.5"
    )


def test_local_proc_call():
    assert (
        run(
            """
            proc square (x: int) returns (int)
              return (x * x)
            end
            program main
              return (square(7))
            end
            """
        )
        == 49
    )


def test_fork_and_claim():
    assert (
        run(
            """
            pt = promise returns (int)
            proc slow_double (x: int) returns (int)
              sleep(2.0)
              return (x * 2)
            end
            program main
              a: pt := fork slow_double(10)
              b: pt := fork slow_double(20)
              return (pt$claim(a) + pt$claim(b))
            end
            """
        )
        == 60
    )


def test_coenter_shares_enclosing_scope():
    assert (
        run(
            """
            program main
              total: int := 0
              coenter
              action
                sleep(1.0)
                total := total + 1
              action
                sleep(2.0)
                total := total + 10
              end
              return (total)
            end
            """
        )
        == 11
    )


def test_index_out_of_bounds_is_failure():
    assert (
        run(
            """
            program main
              xs: array[int] := #[1]
              v: int := 0
              begin
                v := xs[5]
              end except when failure(why: string): v := -1 end
              return (v)
            end
            """
        )
        == -1
    )


def test_division_by_zero_is_failure():
    assert (
        run(
            """
            program main
              v: real := 0.0
              begin
                v := 1 / 0
              end except when failure(why: string): v := -1.0 end
              return (v)
            end
            """
        )
        == -1.0
    )


def test_interpreted_handler_calls_other_guardian():
    """Interpreted handlers can themselves make remote calls."""
    assert (
        run(
            """
            guardian inner is
              handler base (x: int) returns (int)
                return (x + 1)
              end
            end
            guardian outer is
              handler wrap (x: int) returns (int)
                return (inner.base(x) * 10)
              end
            end
            program main
              return (outer.wrap(4))
            end
            """
        )
        == 50
    )


def test_program_with_arguments():
    module = load_module(
        """
        program main (n: int)
          return (n * 3)
        end
        """
    )
    system = ArgusSystem()
    process = system.create_guardian("client").spawn(
        Interpreter(module).program("main", 14)
    )
    assert system.run(until=process) == 42


def test_interp_and_python_guardians_interoperate():
    """A DSL program calling a handler written in Python."""
    from repro.types import HandlerType, INT

    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    native = system.create_guardian("native")

    def triple(ctx, x):
        yield ctx.compute(0.1)
        return x * 3

    native.create_handler("triple", HandlerType(args=[INT], returns=[INT]), triple)

    # The DSL module must declare the native guardian's interface to call
    # it; declare a shim guardian that forwards.
    module = load_module(
        """
        guardian shim is
          handler noop (x: int) returns (int)
            return (x)
          end
        end
        program main
          return (shim.noop(5))
        end
        """
    )
    interp = Interpreter(module)
    interp.instantiate(system)
    process = system.create_guardian("client").spawn(interp.program("main"))
    assert system.run(until=process) == 5


def test_boolean_short_circuit():
    assert (
        run(
            """
            program main
              xs: array[int] := #[1]
              ok: bool := false
              if 1 = 2 and xs[9] = 0 then
                ok := true
              end
              if ok then return (1) end
              return (0)
            end
            """
        )
        == 0
    )


def test_coenter_foreach_dynamic_arms():
    """§4.3: the coenter extended 'to allow a dynamic number of
    processes' — one arm per array element."""
    assert (
        run(
            """
            program main
              xs: array[int] := #[1, 2, 3, 4, 5]
              total: int := 0
              coenter
              foreach x: int in xs
                sleep(1.0)
                total := total + x
              end
              return (total)
            end
            """
        )
        == 15
    )


def test_coenter_foreach_runs_in_parallel():
    """All foreach arms sleep concurrently: wall time ~1, not ~5."""
    source = """
    program main
      xs: array[int] := #[1, 2, 3, 4, 5]
      coenter
      foreach x: int in xs
        sleep(1.0)
      end
      return (0)
    end
    """
    result, system = run_source(source)
    assert system.now == 1.0


def test_coenter_mixed_action_and_foreach():
    assert (
        run(
            """
            program main
              xs: array[int] := #[10, 20]
              total: int := 0
              coenter
              action
                total := total + 1
              foreach x: int in xs
                total := total + x
              end
              return (total)
            end
            """
        )
        == 31
    )


def test_coenter_foreach_requires_array():
    import pytest
    from repro.lang import TypeCheckError, load_module

    with pytest.raises(TypeCheckError, match="iterates arrays"):
        load_module(
            """
            program main
              coenter
              foreach x: int in 5
                sleep(1.0)
              end
            end
            """
        )


def test_array_elements_and_indexes_iterators():
    """The paper's CLU iterators: info$elements and averages$indexes."""
    assert (
        run(
            """
            program main
              xs: array[string] := #["a", "b", "c"]
              joined: string := ""
              for s: string in array[string]$elements(xs) do
                joined := joined + s
              end
              total: int := 0
              for i: int in array[string]$indexes(xs) do
                total := total + i
              end
              if joined = "abc" and total = 3 then
                return (1)
              end
              return (0)
            end
            """
        )
        == 1
    )


def test_except_attached_to_coenter():
    """'The except statement can be attached ... to any textually
    including statement' — including a coenter whose arm fails."""
    assert (
        run(
            GUARDIAN
            + """
            program main
              outcome: int := 0
              coenter
              action
                v: int := g.h(-1)
              action
                sleep(0.1)
              end except when neg: outcome := 1 when others: outcome := 2 end
              return (outcome)
            end
            """
        )
        == 1
    )


def test_nested_except_inner_arm_wins():
    assert (
        run(
            GUARDIAN
            + """
            program main
              v: int := 0
              begin
                begin
                  v := g.h(-1)
                end except when neg: v := 10 end
              end except when neg: v := 20 end
              return (v)
            end
            """
        )
        == 10
    )


def test_unhandled_exception_propagates_out_of_program():
    from repro.core import Signal
    from repro.lang import run_source

    import pytest

    with pytest.raises(Signal):
        run_source(
            GUARDIAN
            + """
            program main
              v: int := g.h(-1)
            end
            """
        )


def test_dsl_program_sees_unavailable_under_partition():
    """The system exception vocabulary reaches DSL except-arms."""
    from repro.entities import ArgusSystem
    from repro.lang import Interpreter, load_module
    from repro.streams import StreamConfig

    module = load_module(
        GUARDIAN
        + """
        program main
          v: int := 0
          v := g.h(1) except when unavailable(why: string): v := -7 end
          return (v)
        end
        """
    )
    config = StreamConfig(batch_size=2, max_buffer_delay=0.5, rto=3.0, max_retries=1)
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1, stream_config=config)
    interp = Interpreter(module)
    interp.instantiate(system)
    client = system.create_guardian("client")
    system.network.partition("node:client", "node:g")
    process = client.spawn(interp.program("main"))
    assert system.run(until=process) == -7
