"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming out of the optimizer / engine with one handler.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class PolyhedralError(ReproError):
    """Malformed polyhedral object or unsupported operation."""


class SpaceMismatchError(PolyhedralError):
    """Two polyhedral objects live in incompatible variable spaces."""


class EmptyPolyhedronError(PolyhedralError):
    """An operation that requires a nonempty polyhedron received an empty one."""


class UnboundedError(PolyhedralError):
    """Enumeration or optimization over an unbounded polyhedron."""


class ProgramError(ReproError):
    """Malformed program IR (bad access, non-affine expression, ...)."""


class ScheduleError(ReproError):
    """Malformed or illegal schedule."""


class OptimizationError(ReproError):
    """The optimizer could not produce a plan (e.g. no plan fits memory cap)."""


class StorageError(ReproError):
    """Storage-layer failure (bad block id, store closed, ...)."""


class TransientIOError(StorageError):
    """A retriable I/O failure (injected or environmental).

    The simulated disk absorbs these with bounded exponential-backoff
    retries; only exhaustion surfaces as a plain :class:`StorageError`.
    """


class CorruptBlockError(StorageError):
    """A block's payload failed checksum verification after all re-reads."""


class BufferPoolError(StorageError):
    """Buffer manager failure (cap exceeded, unpin without pin, ...)."""


class CircuitOpen(StorageError):
    """A store's circuit breaker is open: recent persistent failures mean
    further I/O against it would only burn retry budget, so calls fail
    fast until the cooldown elapses and a probe succeeds."""


class ExecutionError(ReproError):
    """Plan execution failure (kernel error, verification mismatch, ...)."""


class ServiceError(ReproError):
    """Multi-query array service failure (see :mod:`repro.service`)."""


class ServiceClosed(ServiceError):
    """Job submitted to a service that has been shut down."""


class ServiceQueueFull(ServiceError):
    """The service's bounded job queue is at capacity; resubmit later."""


class AdmissionRejected(ServiceError):
    """The job's plan can never fit the service's global memory budget."""


class AdmissionTimeout(ServiceError):
    """The job waited longer than its admission timeout for memory budget."""


class JobCancelled(ServiceError):
    """The job was cooperatively cancelled before it could complete.

    Raised from the job's future after :meth:`JobHandle.cancel` (or a
    service shutdown with ``cancel_running=True``) is observed at the next
    cancellation checkpoint — never the stdlib ``CancelledError``, so every
    service failure stays a typed :class:`ReproError`.
    """


class DeadlineExceeded(JobCancelled):
    """The job's deadline (``submit(timeout=)``) passed before it
    finished; treated as a cancellation observed at the next checkpoint."""


class ServiceOverloaded(ServiceError):
    """The service is shedding load: new submissions are rejected until the
    backlog drains below the degradation policy's high-water mark."""


class JobSpecError(ReproError):
    """A malformed job description or job-file line, or a job whose inputs
    cannot be drawn (see :mod:`repro.service.jobs`)."""


class AdvisorError(ReproError):
    """Workload-advisor failure: unreadable trace/metrics input, a schema
    newer than this reader, or an unapplicable recommendation
    (see :mod:`repro.advisor`)."""
